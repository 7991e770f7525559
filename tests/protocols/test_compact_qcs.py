"""HotStuff with compact (threshold) quorum certificates."""


from repro.core.messages import QCMsg
from repro.crypto.threshold import is_group_signature
from repro.runtime.sim import ConsensusSystem
from tests.conftest import run_protocol, small_config


def test_commits_safely_with_compact_qcs():
    _, result = run_protocol("hotstuff", views=5, compact_qcs=True)
    assert result.safe
    assert result.committed_blocks >= 5


def test_certificates_are_single_group_signatures():
    system = ConsensusSystem(small_config("hotstuff", compact_qcs=True))
    qcs = []
    system.network.add_tap(
        lambda s, d, p: qcs.append(p.qc) if isinstance(p, QCMsg) else None
    )
    system.run_until_views(4, max_time_ms=120_000)
    assert qcs
    for qc in qcs:
        assert len(qc.sigs) == 1
        assert is_group_signature(qc.sigs[0])


def test_compact_qcs_shrink_bytes_at_scale():
    """At f = 10 each list QC carries 21 x 64 B; compact ones 64 B."""
    _, full = run_protocol("hotstuff", views=4, f=10, compact_qcs=False)
    _, compact = run_protocol("hotstuff", views=4, f=10, compact_qcs=True)
    assert compact.bytes_sent < full.bytes_sent
    assert compact.safe and full.safe


def test_compact_and_list_runs_agree_on_chain_length():
    _, full = run_protocol("hotstuff", views=4, seed=5)
    _, compact = run_protocol("hotstuff", views=4, seed=5, compact_qcs=True)
    assert full.committed_blocks >= 4
    assert compact.committed_blocks >= 4


def test_replica_without_threshold_rejects_group_qcs():
    """A group signature only verifies inside a compact-configured system."""
    compact_system = ConsensusSystem(small_config("hotstuff", compact_qcs=True))
    plain_system = ConsensusSystem(small_config("hotstuff", compact_qcs=False))
    qcs = []
    compact_system.network.add_tap(
        lambda s, d, p: qcs.append(p.qc) if isinstance(p, QCMsg) else None
    )
    compact_system.run_until_views(2, max_time_ms=120_000)
    plain_system.start()
    replica = plain_system.replicas[0]
    assert qcs
    assert not replica._verify_qc(qcs[0])


def test_liveness_with_crashed_leader_and_compact_qcs():
    system = ConsensusSystem(
        small_config("hotstuff", timeout_ms=250, compact_qcs=True)
    )
    system.crash_replicas([1])
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4
