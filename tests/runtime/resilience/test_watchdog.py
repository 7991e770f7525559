"""Tests for the liveness watchdog (pure, time injected)."""

from repro.adversary.behaviors import SilentLeaderDamysus
from repro.core.faults import FaultPlan
from repro.runtime.sim import ConsensusSystem
from repro.runtime.resilience.watchdog import LivenessWatchdog
from tests.conftest import small_config


def test_commits_keep_a_replica_healthy():
    dog = LivenessWatchdog(stall_after_ms=1_000.0)
    dog.record_commit(0, 100.0)
    dog.record_commit(0, 900.0)
    snap = dog.snapshot(1_500.0)
    assert snap.healthy
    assert snap.stalled_pids == ()
    assert snap.replicas[0].committed_blocks == 2


def test_silence_past_the_budget_is_a_stall():
    dog = LivenessWatchdog(stall_after_ms=1_000.0)
    dog.record_commit(0, 100.0)
    dog.record_commit(1, 100.0)
    dog.record_commit(1, 2_000.0)
    snap = dog.snapshot(2_500.0)
    assert not snap.healthy
    assert snap.stalled_pids == (0,)


def test_never_committed_counts_from_first_sighting():
    dog = LivenessWatchdog(stall_after_ms=500.0)
    dog.record_alive(3, 0.0)
    assert dog.snapshot(400.0).healthy
    assert dog.snapshot(600.0).stalled_pids == (3,)


def test_dead_is_reported_separately_not_as_stall():
    dog = LivenessWatchdog(stall_after_ms=500.0)
    dog.record_commit(0, 0.0)
    dog.record_dead(0)
    snap = dog.snapshot(10_000.0)
    assert snap.dead_pids == (0,)
    assert snap.stalled_pids == ()
    # Revival via a new sighting clears the dead flag.
    dog.record_alive(0, 10_000.0)
    assert dog.snapshot(10_100.0).dead_pids == ()


def test_explicit_commit_count_overrides_increment():
    dog = LivenessWatchdog()
    dog.record_commit(0, 1.0, committed_blocks=41)
    dog.record_commit(0, 2.0)
    assert dog.snapshot(3.0).replicas[0].committed_blocks == 42


def test_min_committed_ignores_dead_replicas():
    dog = LivenessWatchdog()
    dog.record_commit(0, 1.0, committed_blocks=9)
    dog.record_commit(1, 1.0, committed_blocks=2)
    dog.record_dead(1)
    assert dog.snapshot(2.0).min_committed == 9


def test_snapshot_serializes_to_plain_json_types():
    dog = LivenessWatchdog(stall_after_ms=100.0)
    dog.record_commit(0, 1.0)
    data = dog.snapshot(50.0).to_dict()
    assert data["healthy"] is True
    assert data["replicas"][0]["pid"] == 0
    import json

    json.dumps(data)  # must be directly serializable


# -- fed from an attacked cluster -------------------------------------------


def _feed_until(dog, system, until_ms):
    """Replay the simulated commit log into the watchdog up to a cutoff."""
    for rec in sorted(system.monitor.executions, key=lambda r: r.executed_at):
        if rec.executed_at <= until_ms:
            dog.record_commit(
                rec.replica, rec.executed_at, committed_view=rec.view
            )


def test_silent_leader_stall_is_flagged_and_clears_on_recovery():
    """The silent leader's view opens a commit gap longer than its own
    timeout; a watchdog with a tighter budget flags the whole cluster
    stalled mid-gap and healthy again once the view change lands."""
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=500),
        replica_overrides={1: SilentLeaderDamysus},
    )
    system.run_until_views(6, max_time_ms=300_000)
    times = sorted({r.executed_at for r in system.monitor.executions})
    gap_start, gap_end = max(
        zip(times, times[1:]), key=lambda pair: pair[1] - pair[0]
    )
    assert gap_end - gap_start > 500.0  # the silent view really stalled

    dog = LivenessWatchdog(stall_after_ms=400.0)
    mid_gap = gap_start + 450.0
    _feed_until(dog, system, mid_gap)
    snap = dog.snapshot(mid_gap)
    assert not snap.healthy
    assert set(snap.stalled_pids) == {0, 1, 2}  # nobody can commit

    _feed_until(dog, system, system.sim.now)
    recovered = dog.snapshot(gap_end + 100.0)
    assert recovered.healthy
    assert recovered.stalled_pids == ()


def test_view_lag_grows_during_an_outage_and_clears_after_catchup():
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250, checkpoint_interval=5, seed=1)
    )
    system.apply_fault_plan(FaultPlan().crash(2, at_ms=500.0, recover_at_ms=3_000.0))
    system.start()
    system.sim.run(until=10_000.0)
    assert system.result().safe

    dog = LivenessWatchdog(stall_after_ms=1_000.0)
    _feed_until(dog, system, 2_900.0)  # replica 2 is still down
    mid = dog.snapshot(2_900.0)
    # Snapshots reference the live health entries, so read the lag now.
    mid_lag = mid.view_lag_of(2)
    assert mid_lag >= 5  # falling further behind every view
    assert mid.view_lag_of(0) == 0 or mid.view_lag_of(1) == 0

    _feed_until(dog, system, system.sim.now)  # recovery + catch-up replayed
    final = dog.snapshot(system.sim.now)
    assert final.view_lag_of(2) <= 1
    assert final.view_lag_of(2) < mid_lag
