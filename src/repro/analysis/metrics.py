"""Aggregation helpers over simulation results.

The paper reports averages over repetitions and improvement percentages
over the HotStuff baselines ("Damysus has an average throughput increase
of 87.5% and an average latency decrease of 45%", Section 8).  These
helpers compute exactly those quantities from :class:`RunResult` lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.sim import RunResult


def mean(values: list[float]) -> float:
    """Arithmetic mean; 0.0 for an empty list."""
    if not values:
        return 0.0
    return sum(values) / len(values)


@dataclass(frozen=True)
class Summary:
    """Averaged metrics of one (protocol, configuration) cell."""

    protocol: str
    f: int
    num_replicas: int
    throughput_kops: float
    latency_ms: float
    messages: float
    repetitions: int


def summarize_runs(runs: list[RunResult]) -> Summary:
    """Average repeated runs of the same configuration."""
    if not runs:
        raise ValueError("no runs to summarize")
    first = runs[0]
    return Summary(
        protocol=first.protocol,
        f=first.f,
        num_replicas=first.num_replicas,
        throughput_kops=mean([r.throughput_kops for r in runs]),
        latency_ms=mean([r.mean_latency_ms for r in runs]),
        messages=mean([float(r.messages_sent) for r in runs]),
        repetitions=len(runs),
    )


def improvement_percent(new: float, baseline: float) -> float:
    """Relative improvement of ``new`` over ``baseline`` in percent."""
    if baseline == 0:
        return 0.0
    return (new - baseline) / baseline * 100.0


def throughput_increase_percent(protocol_tput: float, baseline_tput: float) -> float:
    """Paper's "throughput increase of X%": positive = faster."""
    return improvement_percent(protocol_tput, baseline_tput)


def latency_decrease_percent(protocol_lat: float, baseline_lat: float) -> float:
    """Paper's "latency decrease of X%": positive = lower latency."""
    if baseline_lat == 0:
        return 0.0
    return (baseline_lat - protocol_lat) / baseline_lat * 100.0

