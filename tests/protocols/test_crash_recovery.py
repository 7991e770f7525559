"""Crash-recovery tests: sealed TEE state, rollback refusal, rejoin."""

from dataclasses import replace

import pytest

from repro.core.codec import decode_record, encode_record
from repro.core.mempool import AdmissionVerdict
from repro.errors import TEERefusal
from repro.protocols.registry import PROTOCOL_ORDER
from repro.runtime.sim import ConsensusSystem
from repro.tee.sealed import DurableState
from tests.conftest import small_config


def run_until_fresh_views(system, fresh, max_time_ms=300_000.0):
    target = len(system.monitor.committed_views()) + fresh
    return system.run_until_views(target, max_time_ms=max_time_ms)


@pytest.mark.parametrize("protocol", PROTOCOL_ORDER)
def test_mid_run_crash_then_recovery_stays_safe_and_live(protocol):
    system = ConsensusSystem(small_config(protocol, f=1, timeout_ms=250))
    system.start()
    system.sim.run(until=200.0)
    system.crash_replicas([2])
    system.sim.run(until=600.0)
    system.recover_replicas([2])
    result = run_until_fresh_views(system, 6)
    assert result.safe
    assert result.committed_blocks >= 6
    replica = system.replicas[2]
    assert replica.crash_count == 1 and replica.recovery_count == 1
    assert not replica.crashed


def test_repeated_crash_recover_cycles_damysus():
    system = ConsensusSystem(small_config("damysus", f=1, timeout_ms=250))
    system.start()
    at = 200.0
    for _ in range(3):
        system.sim.run(until=at)
        system.crash_replicas([2])
        system.sim.run(until=at + 300.0)
        system.recover_replicas([2])
        at += 600.0
    result = run_until_fresh_views(system, 4)
    assert result.safe
    assert result.committed_blocks >= 4
    assert system.replicas[2].recovery_count == 3


def test_recovered_replica_rejoins_at_checker_view():
    """The unsealed step counter is the trustworthy floor for rejoining."""
    system = ConsensusSystem(small_config("damysus", f=1, timeout_ms=250))
    system.start()
    system.sim.run(until=400.0)
    replica = system.replicas[2]
    view_at_crash = replica.checker.step.view
    replica.crash()
    system.sim.run(until=800.0)
    replica.recover()
    assert replica.checker.step.view >= view_at_crash
    assert replica.view >= view_at_crash


def test_recovery_without_sealed_state_is_refused_for_tee_replicas():
    system = ConsensusSystem(small_config("damysus", f=1, timeout_ms=250))
    system.start()
    system.sim.run(until=300.0)
    replica = system.replicas[2]
    replica.crash()
    # The host strips the sealed checker from the record it kept.
    stripped = replace(decode_record(DurableState, replica.disk), sealed=None)
    replica.disk = encode_record(stripped)
    with pytest.raises(TEERefusal, match="no sealed checker"):
        replica.recover()
    assert replica.crashed


def test_recovered_checker_refuses_resigning_passed_steps():
    """After recovery the checker continues strictly past its sealed step."""
    system = ConsensusSystem(small_config("damysus", f=1, timeout_ms=250))
    system.start()
    system.sim.run(until=400.0)
    replica = system.replicas[2]
    replica.crash()
    sealed_step = (replica.checker.step.view, replica.checker.step.phase)
    system.sim.run(until=700.0)
    replica.recover()
    phi = replica.checker.tee_sign()
    assert (phi.v_prep, phi.phase) >= sealed_step


def test_crash_and_recover_are_idempotent():
    system = ConsensusSystem(small_config("damysus", f=1, timeout_ms=250))
    system.start()
    system.sim.run(until=200.0)
    replica = system.replicas[2]
    replica.recover()  # not crashed: no-op
    assert replica.recovery_count == 0
    replica.crash()
    replica.crash()  # already crashed: no-op
    assert replica.crash_count == 1
    replica.recover()
    assert replica.recovery_count == 1


def test_hotstuff_recovery_without_tee_keeps_stable_certificates():
    """Protocols without a checker recover from stable storage alone."""
    system = ConsensusSystem(small_config("hotstuff", f=1, timeout_ms=250))
    system.start()
    system.sim.run(until=400.0)
    replica = system.replicas[2]
    locked_before = replica.locked_qc
    replica.crash()
    system.sim.run(until=800.0)
    replica.recover()  # no sealed state needed
    assert not replica.crashed
    assert replica.locked_qc == locked_before
    result = run_until_fresh_views(system, 4)
    assert result.safe
    assert result.committed_blocks >= 4


def _safety_critical_state(replica):
    """What must outlive a crash: certificates on stable storage, sealed TEE state."""
    checker = replica.checker
    return (
        getattr(replica, "prepare_qc", None),
        getattr(replica, "locked_qc", None),
        None if checker is None else (checker.prepared_view, checker.prepared_hash),
        None if checker is None else (checker.locked_view, checker.locked_hash),
    )


@pytest.mark.parametrize("protocol", ["hotstuff", "damysus-c"])  # one per vote engine
def test_crash_rebuilds_declared_state_and_keeps_what_safety_needs(protocol):
    system = ConsensusSystem(small_config(protocol, f=1, timeout_ms=250))
    system.start()
    system.sim.run(until=400.0)
    # Only recent leaders hold collected votes: crash the one holding most.
    replica = max(
        system.replicas,
        key=lambda r: sum(getattr(r, attr).pending_keys() for attr in r.COLLECTORS),
    )
    declared = (*replica.COLLECTORS, *replica.VIEW_SETS)
    before = {attr: getattr(replica, attr) for attr in declared}
    assert any(before[attr].pending_keys() for attr in replica.COLLECTORS)
    assert any(before[attr] for attr in replica.VIEW_SETS)
    kept = _safety_critical_state(replica)
    assert kept[0] is None or kept[0].view > 0  # something real is at stake
    step_before = replica.checker.step if replica.checker is not None else None

    replica.crash()
    system.sim.run(until=800.0)
    replica.recover()

    for attr in replica.COLLECTORS:
        collector = getattr(replica, attr)
        assert collector is not before[attr]
        assert collector.pending_keys() == 0 and collector.threshold == replica.quorum
    for attr in replica.VIEW_SETS:
        assert getattr(replica, attr) == set()
    assert _safety_critical_state(replica) == kept
    if step_before is not None:
        rule = replica.checker.step_rule
        assert replica.checker.step.index(rule) >= step_before.index(rule)
    result = run_until_fresh_views(system, 4)
    assert result.safe and result.committed_blocks >= 4


@pytest.mark.parametrize("protocol", ["hotstuff", "damysus-c"])  # one per vote engine
def test_crash_loses_the_pool_but_not_its_counters(protocol):
    """Residents and replay memory are memory; a restart must not still
    hold (and later propose) what committed while the replica was down."""
    system = ConsensusSystem(
        small_config(
            protocol, f=1, timeout_ms=250, open_loop=False, num_clients=2,
            client_interval_ms=2.0, block_size=5,
        )
    )
    system.start()
    system.sim.run(until=300.0)
    replica = system.replicas[2]
    pool = replica.mempool
    committed = next(
        tx for block in replica.ledger.executed for tx in block.transactions if tx.client_id >= 0
    )
    assert pool.pending() > 0  # 1000 tx/s against 5-transaction blocks: a backlog
    assert pool.admit(committed, system.sim.now) is AdmissionVerdict.DUPLICATE
    before = pool.stats()
    assert before["purged"] > 0

    replica.crash()

    after = pool.stats()
    assert after["pending_txs"] == 0 and after["pending_bytes"] == 0
    for counter in ("admitted", "drained", "evicted", "purged", "rejected_duplicate"):
        assert after[counter] == before[counter]
    # The replay memory went with the residents (the ledger, not the pool,
    # is what still knows the key was applied).
    assert pool.admit(committed, system.sim.now) is AdmissionVerdict.ACCEPTED
    assert committed.key in replica.ledger.applied
    system.sim.run(until=700.0)
    replica.recover()
    result = run_until_fresh_views(system, 4)
    assert result.safe and result.committed_blocks >= 4
