"""Tests for result aggregation and improvement computations."""

import pytest

from repro.analysis.metrics import (
    improvement_percent,
    latency_decrease_percent,
    mean,
    summarize_runs,
    throughput_increase_percent,
)
from repro.runtime.sim import RunResult


def run(protocol="damysus", tput=10.0, lat=50.0, msgs=100):
    return RunResult(
        protocol=protocol,
        f=1,
        num_replicas=3,
        duration_ms=1000.0,
        committed_blocks=10,
        committed_views=10,
        throughput_kops=tput,
        mean_latency_ms=lat,
        messages_sent=msgs,
        bytes_sent=1000,
        safe=True,
    )


def test_mean():
    assert mean([]) == 0.0
    assert mean([2.0, 4.0]) == 3.0


def test_summarize_runs_averages():
    summary = summarize_runs([run(tput=10.0, lat=40.0), run(tput=20.0, lat=60.0)])
    assert summary.throughput_kops == 15.0
    assert summary.latency_ms == 50.0
    assert summary.repetitions == 2
    assert summary.protocol == "damysus"


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize_runs([])


def test_improvement_percent():
    assert improvement_percent(15.0, 10.0) == pytest.approx(50.0)
    assert improvement_percent(5.0, 10.0) == pytest.approx(-50.0)
    assert improvement_percent(1.0, 0.0) == 0.0


def test_paper_style_improvements():
    """+87.5% throughput means 1.875x; -45% latency means 0.55x."""
    assert throughput_increase_percent(1.875, 1.0) == pytest.approx(87.5)
    assert latency_decrease_percent(55.0, 100.0) == pytest.approx(45.0)
    assert latency_decrease_percent(100.0, 0.0) == 0.0
