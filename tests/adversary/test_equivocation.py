"""Safety under equivocating leaders."""


from repro.adversary.registry import get_adversary
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config

EQUIVOCATE = get_adversary("equivocate")


def test_hotstuff_survives_equivocating_leader():
    """Quorum intersection tolerates equivocation at 3f+1 (no TEE needed)."""
    system = ConsensusSystem(
        small_config("hotstuff", f=1, timeout_ms=250),
        replica_overrides={1: EQUIVOCATE.replica_class("hotstuff")},
    )
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4
    byzantine = system.replicas[1]
    assert byzantine.equivocations > 0  # the attack actually ran


def test_hotstuff_equivocated_views_do_not_commit_twice():
    system = ConsensusSystem(
        small_config("hotstuff", f=1, timeout_ms=250),
        replica_overrides={1: EQUIVOCATE.replica_class("hotstuff")},
    )
    system.run_until_views(4, max_time_ms=300_000)
    # No view may have more than one executed block.
    views = [rec.view for rec in system.monitor.executions]
    blocks_per_view = {}
    for rec in system.monitor.executions:
        blocks_per_view.setdefault(rec.view, set()).add(rec.block_hash)
    assert all(len(blocks) == 1 for blocks in blocks_per_view.values())


def test_damysus_checker_blocks_equivocation():
    """The second TEEprepare yields an unusable certificate (Section 6.5)."""
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250),
        replica_overrides={1: EQUIVOCATE.replica_class("damysus")},
    )
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    byzantine = system.replicas[1]
    assert byzantine.failed_equivocations > 0
    assert result.committed_blocks >= 4


def test_damysus_equivocating_leader_cannot_fork_executions():
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250),
        replica_overrides={1: EQUIVOCATE.replica_class("damysus")},
    )
    system.run_until_views(4, max_time_ms=300_000)
    blocks_per_view = {}
    for rec in system.monitor.executions:
        blocks_per_view.setdefault(rec.view, set()).add(rec.block_hash)
    assert all(len(blocks) == 1 for blocks in blocks_per_view.values())
