"""Unit-level tests of chained HotStuff's certificates, locks and commits."""

from repro.core.certificate import QuorumCert
from repro.runtime.sim import ConsensusSystem
from tests.conftest import run_protocol, small_config


def test_blocks_carry_prepare_qcs():
    system, _ = run_protocol("chained-hotstuff", views=5)
    replica = system.replicas[0]
    for block in replica.ledger.executed:
        if block.view == 1:
            assert block.justify.is_genesis
        else:
            assert isinstance(block.justify, QuorumCert)
            assert len(block.justify.sigs) == system.quorum
            assert block.justify.view == block.view - 1

def test_four_chain_commit_lag():
    """A block executes when the proposal three views later arrives."""
    system, _ = run_protocol("chained-hotstuff", views=6)
    executions = {}
    for rec in system.monitor.executions:
        executions.setdefault(rec.view, rec.executed_at)
    replica = system.replicas[0]
    proposals = {b.view: b.created_at for b in replica.ledger.executed}
    for view, executed_at in executions.items():
        # Execution happens after the view+3 proposal exists.
        later = proposals.get(view + 3)
        if later is not None:
            assert executed_at >= later

def test_lock_advances_with_chain():
    system, _ = run_protocol("chained-hotstuff", views=6)
    for replica in system.replicas:
        assert replica.locked_qc.view >= 3  # locks formed along the run
        assert replica.high_qc.view >= replica.locked_qc.view

def test_executes_one_view_later_than_chained_damysus():
    _, hs = run_protocol("chained-hotstuff", views=5, seed=2)
    _, dam = run_protocol("chained-damysus", views=5, seed=2)
    assert dam.mean_latency_ms < hs.mean_latency_ms

def test_timeout_recovery_reproposes_high_qc():
    system = ConsensusSystem(small_config("chained-hotstuff", timeout_ms=250))
    system.crash_replicas([2])
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4
    # Gap views exist: some executed block is justified by a QC from a
    # non-adjacent view (the recovery path extends the highest known QC).
    replica = system.replicas[0]
    views = [b.view for b in replica.ledger.executed]
    assert views == sorted(views)

def test_scale_smoke_f20():
    """Chained HotStuff at N=61 commits promptly (logic-only run)."""
    _, result = run_protocol("chained-hotstuff", views=4, f=20)
    assert result.safe
    assert result.committed_blocks >= 4
