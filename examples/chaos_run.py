#!/usr/bin/env python3
"""Chaos run: Damysus under loss, a partition, and crash/recovery.

This is the campaign's honest chaos cell - what ``repro campaign
--adversaries none --plans chaos --topologies eu`` runs.
The ``chaos`` base plan drops 20% of all messages, cuts the first f
replicas off behind a symmetric partition mid-run, and crash/recovers
the trailing f replicas - sealing their Checker state through the
trusted sealing service and unsealing it on recovery.  Nobody is
seated as an attacker (adversary ``none``), and the cell is scored by
the campaign's oracles: safety throughout, and, once every fault has
healed, commits at the clean rate within the view budget.

Everything is driven by seeded RNG streams, so the run below is fully
replayable: the second invocation with the same seed must produce a
bit-identical cell.
"""

from repro.adversary.registry import HONEST
from repro.analysis.campaign import run_cell


def main() -> None:
    print("Damysus under the campaign's chaos plan (seed 7)")
    print("=" * 64)
    cell = run_cell("damysus", HONEST, "chaos", "eu", seed=7)
    print(f"verdict              {cell.verdict}")
    print(f"faults healed at     {cell.healed_at_ms:.0f} ms")
    print(f"views to recover     {cell.views_to_recover}")
    print(f"blocks per view      {cell.commit_rate:.2f} after the heal")
    print(f"timeouts fired       {cell.timeouts_fired}")
    print(f"blocks committed     {cell.commits} in {cell.duration_ms:.0f} virtual ms")
    assert cell.ok, "chaos run must stay safe and regain liveness"

    print()
    print("Replaying with the same seed ...")
    replay = run_cell("damysus", HONEST, "chaos", "eu", seed=7)
    assert replay == cell, "same seed must reproduce the identical cell"
    print("replay is bit-identical: chaos runs are deterministic per seed")


if __name__ == "__main__":
    main()
