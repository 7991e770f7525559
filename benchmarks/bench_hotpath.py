"""Hot-path microbenchmarks: the simulator inner loop and its caches.

Unlike the figure benchmarks (which regenerate the paper's tables),
these measure the *implementation*: events/sec through ``Simulator.run``
with the result-invisible caches (``repro.perf``) enabled vs disabled,
and the parallel executor's merge identity.  They back the
``repro perf`` baseline gate with a pytest-benchmark view of the same
workloads.
"""

from __future__ import annotations

import os

import pytest

from repro import perf
from repro.bench.parallel import run_cells
from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.runtime.sim import ConsensusSystem

_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")

#: A mid-size single cell: large enough that crypto and codec dominate.
HOTPATH_F = 20 if _SCALE == "paper" else 10
HOTPATH_VIEWS = 12 if _SCALE == "paper" else 6


def _run_cell() -> int:
    config = SystemConfig(protocol="hotstuff", f=HOTPATH_F, payload_bytes=256, seed=1)
    system = ConsensusSystem(config)
    system.run_until_views(HOTPATH_VIEWS)
    return system.sim.events_processed


@pytest.mark.parametrize("caches", ["cached", "uncached"])
def test_hotpath_events(benchmark, caches):
    """Events through the simulator with and without the perf caches."""
    perf.set_caches_enabled(caches == "cached")
    try:
        events = benchmark.pedantic(_run_cell, rounds=3, iterations=1)
    finally:
        perf.set_caches_enabled(True)
    assert events > 0
    print(f"\n{caches}: {events} events per run")


def test_parallel_merge_identity(benchmark):
    """A 2-worker grid merges to exactly the sequential summaries."""
    runner = ExperimentRunner(views_per_run=4, repetitions=2)
    cells = [("hotstuff", 1), ("damysus", 1)]
    sequential = run_cells(runner, cells, jobs=1)
    parallel = benchmark.pedantic(
        run_cells, args=(runner, cells), kwargs={"jobs": 2}, rounds=1, iterations=1
    )
    assert parallel == sequential
