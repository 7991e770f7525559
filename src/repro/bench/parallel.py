"""Parallel scenario executor: shard the experiment grid across processes.

The evaluation grids (Figs 6-8) are collections of fully independent
cells - each (protocol, f, payload, seed) combination is its own sealed
simulation - so they parallelize embarrassingly.  Work is sharded at the
*repetition* level: every task is one seeded run, the finest grain that
still amortizes process overhead.

Determinism contract: results are merged back in task submission order
(``ProcessPoolExecutor.map`` preserves input order), and every run is a
pure function of its ``(protocol, f, seed)`` plus the runner parameters,
so ``run_cells(..., jobs=N)`` returns *byte-identical* summaries to the
sequential path for any ``N``.  ``jobs <= 1`` never spawns processes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Sequence

from repro.analysis.metrics import Summary, summarize_runs
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.runner import ExperimentRunner
    from repro.runtime.sim import RunResult

def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: 0 means "all cores", negatives reject."""
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _run_task(task: "tuple[ExperimentRunner, str, int, int]") -> "RunResult":
    """Execute one repetition; module-level so it pickles to workers."""
    runner, protocol, f, seed = task
    return runner.run_once(protocol, f, seed=seed)


def run_cells(
    runner: "ExperimentRunner",
    cells: Sequence[tuple[str, int]],
    jobs: int = 1,
) -> dict[tuple[str, int], Summary]:
    """Run every (protocol, f) cell of ``runner``'s grid, possibly in parallel.

    Returns ``{(protocol, f): Summary}`` with each cell averaging
    ``runner.repetitions`` seeded runs, exactly as the sequential
    ``ExperimentRunner.run_cell`` would produce.
    """
    jobs = resolve_jobs(jobs)
    tasks = [
        (runner, protocol, f, runner.base_seed + rep)
        for protocol, f in cells
        for rep in range(runner.repetitions)
    ]
    if jobs <= 1 or len(tasks) <= 1:
        results = [_run_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_run_task, tasks, chunksize=1))
    merged: dict[tuple[str, int], Summary] = {}
    runs_iter = iter(results)
    for cell in cells:
        runs = [next(runs_iter) for _ in range(runner.repetitions)]
        merged[cell] = summarize_runs(runs)
    return merged
