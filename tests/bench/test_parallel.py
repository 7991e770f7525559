"""Tests for the parallel scenario executor.

The contract under test: sharding the grid across processes is
*invisible* - ``run_cells(..., jobs=N)`` returns summaries equal to the
sequential path for any N.
"""

import pytest

from repro.bench.parallel import resolve_jobs, run_cells
from repro.bench.runner import ExperimentRunner
from repro.errors import ConfigError


def small_runner(**overrides):
    params = dict(views_per_run=4, repetitions=2, payload_bytes=64, block_size=100)
    params.update(overrides)
    return ExperimentRunner(**params)


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(0) >= 1  # all cores
    with pytest.raises(ConfigError):
        resolve_jobs(-1)


def test_sequential_matches_run_cell():
    runner = small_runner()
    cells = [("hotstuff", 1), ("damysus", 1)]
    merged = run_cells(runner, cells, jobs=1)
    for protocol, f in cells:
        assert merged[(protocol, f)] == runner.run_cell(protocol, f)


def test_parallel_matches_sequential():
    """jobs=N merges to byte-identical summaries vs jobs=1."""
    runner = small_runner()
    cells = [("hotstuff", 1), ("damysus", 2), ("chained-damysus", 1)]
    sequential = run_cells(runner, cells, jobs=1)
    parallel = run_cells(runner, cells, jobs=3)
    assert parallel == sequential
    assert list(parallel) == list(sequential)  # same cell order too


def test_sweep_uses_shared_path():
    runner = small_runner()
    grid_seq = runner.sweep(["hotstuff", "damysus"], [1], jobs=1)
    grid_par = runner.sweep(["hotstuff", "damysus"], [1], jobs=2)
    assert grid_seq == grid_par


def test_single_task_stays_in_process():
    """A one-task grid must not pay process-pool overhead."""
    runner = small_runner(repetitions=1)
    merged = run_cells(runner, [("hotstuff", 1)], jobs=8)
    assert merged[("hotstuff", 1)] == runner.run_cell("hotstuff", 1)
