"""Rejoin latency for lagging replicas: checkpoint transfer vs replay.

Section 5's streamlined protocols keep the quorum small (2f+1), which
makes every replica's availability matter more - so how fast a crashed
replica becomes a useful quorum member again is a first-class metric.
This benchmark crashes one replica, lets the cluster commit ``missed``
more views, recovers it and measures the simulated time until it is
back inside ``CATCHUP_VIEW_GAP`` of the frontier.

Two transfer strategies are compared under the same miss count:

* **checkpoint** - peers certify checkpoints every 50 blocks and compact
  their logs; the rejoiner installs a certified checkpoint and replays
  only the suffix above it.  Work is O(interval), independent of how
  long the replica was gone.
* **replay** - the checkpoint interval is set beyond the run length, so
  peers never compact and serve the entire missed suffix in chunks of
  ``repro.protocols.replica.SYNC_CHUNK_BLOCKS`` blocks.  Work is O(missed).
"""

import os

import pytest

from repro.config import SystemConfig
from repro.costs import CostModel
from repro.protocols.sync import CATCHUP_VIEW_GAP
from repro.runtime.sim import ConsensusSystem

#: Views the victim sits out, per scale (see conftest.SCALE).
if os.environ.get("REPRO_BENCH_SCALE", "small") == "paper":
    MISSED = [1_000, 5_000]
else:
    MISSED = [100, 400]

#: Sim-time allowance for one rejoin, per missed view (generous).
REJOIN_BOUND_MS_PER_VIEW = 200.0


def run_rejoin(missed: int, interval: int, seed: int = 11) -> dict:
    """Crash, miss ``missed`` views, recover; measure rejoin latency."""
    config = SystemConfig(
        protocol="damysus",
        f=1,
        payload_bytes=0,
        block_size=1,
        seed=seed,
        timeout_ms=500.0,
        costs=CostModel.zero(),
        checkpoint_interval=interval,
    )
    system = ConsensusSystem(config)
    system.start()
    system.run_until_views(5, max_time_ms=600_000)
    victim = system.replicas[-1].pid
    system.crash_replicas([victim])
    base_views = len(system.monitor.committed_views())
    system.run_until_views(base_views + missed, max_time_ms=missed * 10_000.0)
    system.recover_replicas([victim])

    recovered = system.replicas[victim]
    t0 = system.sim.now
    deadline = t0 + missed * REJOIN_BOUND_MS_PER_VIEW
    while system.sim.now < deadline:
        system.sim.run(until=system.sim.now + 500.0)
        if recovered.viewsync.view_lag() <= CATCHUP_VIEW_GAP:
            break
    assert recovered.viewsync.view_lag() <= CATCHUP_VIEW_GAP, "never rejoined"
    assert system.oracle.safe
    return {
        "rejoin_ms": system.sim.now - t0,
        "replayed_blocks": len(recovered.ledger.executed),
        "base_height": recovered.ledger.base_height,
        "height": recovered.ledger.height(),
        "via_checkpoint": recovered.caught_up_via_checkpoint,
        "rounds": recovered.catchup.completed,
    }


@pytest.mark.parametrize("missed", MISSED)
def test_rejoin_latency_vs_missed_views(benchmark, missed):
    out = benchmark.pedantic(
        lambda: run_rejoin(missed, interval=50), rounds=1, iterations=1
    )
    print(
        f"\ncheckpoint rejoin after {missed} missed views: "
        f"{out['rejoin_ms']:.0f} sim-ms, replayed {out['replayed_blocks']} "
        f"blocks above base {out['base_height']}"
    )
    assert out["via_checkpoint"]
    # The transferred suffix is bounded by the interval + in-flight lag,
    # not by the miss count - that is the whole point of checkpoints.
    assert out["replayed_blocks"] < missed
    benchmark.extra_info.update(missed=missed, **out)


def test_checkpoint_transfer_beats_replay(benchmark):
    missed = MISSED[0]

    def measure():
        ckpt = run_rejoin(missed, interval=50)
        # Interval beyond the run length: peers never certify/compact,
        # so the rejoiner must pull the whole suffix - replay.
        replay = run_rejoin(missed, interval=1_000_000)
        return ckpt, replay

    ckpt, replay = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\nafter {missed} missed views: checkpoint transfer replayed "
        f"{ckpt['replayed_blocks']} blocks in {ckpt['rejoin_ms']:.0f} sim-ms; "
        f"full replay executed {replay['replayed_blocks']} blocks in "
        f"{replay['rejoin_ms']:.0f} sim-ms"
    )
    assert ckpt["via_checkpoint"] and not replay["via_checkpoint"]
    # Replay work scales with the miss count; checkpoint work does not.
    assert replay["replayed_blocks"] > missed
    assert ckpt["replayed_blocks"] < replay["replayed_blocks"] / 2
    benchmark.extra_info.update(
        missed=missed,
        checkpoint_rejoin_ms=ckpt["rejoin_ms"],
        replay_rejoin_ms=replay["rejoin_ms"],
        checkpoint_blocks=ckpt["replayed_blocks"],
        replay_blocks=replay["replayed_blocks"],
    )
