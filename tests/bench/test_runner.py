"""Tests for the experiment runner and reporting."""


from repro.bench.reporting import format_table
from repro.bench.runner import ExperimentRunner


def tiny_runner(**overrides):
    params = dict(payload_bytes=0, block_size=5, views_per_run=3, repetitions=2)
    params.update(overrides)
    return ExperimentRunner(**params)


def test_run_cell_aggregates_repetitions():
    summary = tiny_runner().run_cell("damysus", 1)
    assert summary.repetitions == 2
    assert summary.throughput_kops > 0
    assert summary.latency_ms > 0
    assert summary.num_replicas == 3


def test_run_cell_uses_distinct_seeds():
    runner = tiny_runner()
    r1 = runner.run_once("damysus", 1, seed=1)
    r2 = runner.run_once("damysus", 1, seed=2)
    assert r1.mean_latency_ms != r2.mean_latency_ms


def test_sweep_covers_grid():
    grid = tiny_runner(repetitions=1).sweep(["damysus", "hotstuff"], [1, 2])
    assert set(grid) == {("damysus", 1), ("damysus", 2), ("hotstuff", 1), ("hotstuff", 2)}


def test_config_overrides_pass_through():
    runner = tiny_runner()
    config = runner.config_for("damysus", 1, seed=5, payload_bytes=128)
    assert config.payload_bytes == 128
    assert config.seed == 5


def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [[1, 2.5], ["xx", 100.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbbb" in lines[1]
    assert len(lines) == 5
