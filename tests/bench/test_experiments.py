"""Smoke tests for the per-figure experiment definitions (tiny scale)."""

import pytest

from repro.analysis.complexity import expected_messages
from repro.bench.experiments import ALL_PROTOCOLS, fig6, fig9, table1_experiment


@pytest.mark.parametrize("f", [1, 2, 4])
def test_table1_experiment_measured_matches_analytic(f):
    report = table1_experiment(f=f, views_per_run=6)
    measured = report.data["measured"]
    assert set(measured) == set(ALL_PROTOCOLS)
    for protocol, value in measured.items():
        assert value == pytest.approx(expected_messages(protocol, f), rel=0.05)


def test_table1_render_contains_all_rows():
    report = table1_experiment(f=1, measure=False)
    text = report.render()
    for name in ("pbft", "minbft", "hotstuff", "damysus", "chained-damysus"):
        assert name in text


def test_fig6_report_structure():
    report = fig6(payload_bytes=0, thresholds=[1], views_per_run=3, repetitions=1)
    assert len(report.rows) == 6  # six protocols x one threshold
    assert len(report.notes) == 4  # four improvement lines
    grid = report.data["grid"]
    assert ("damysus", 1) in grid


def test_fig6_hybrids_beat_baselines_at_f1():
    report = fig6(payload_bytes=0, thresholds=[1], views_per_run=4, repetitions=1)
    grid = report.data["grid"]
    assert (
        grid[("damysus", 1)].throughput_kops > grid[("hotstuff", 1)].throughput_kops
    )
    assert grid[("damysus", 1)].latency_ms < grid[("hotstuff", 1)].latency_ms
    assert (
        grid[("chained-damysus", 1)].throughput_kops
        > grid[("chained-hotstuff", 1)].throughput_kops
    )


def test_fig9_rows_and_saturation():
    report = fig9(
        intervals_ms=[5.0, 0.5],
        num_clients=2,
        duration_ms=400.0,
        protocols=["damysus"],
    )
    assert len(report.rows) == 2
    light = report.data[("damysus", 5.0)]
    heavy = report.data[("damysus", 0.5)]
    assert heavy["achieved_kops"] >= light["achieved_kops"]
