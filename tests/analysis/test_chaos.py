"""Tests for the chaos harness: safety under faults, liveness after healing."""

import pytest

from repro.analysis.chaos import (
    run_chaos,
    run_standard_chaos,
    standard_chaos_plan,
)
from repro.errors import SimulationError
from repro.core.faults import FaultPlan


def test_damysus_standard_chaos_is_safe_and_recovers():
    """The issue's headline demo: f crash/recover cycles under 20% loss
    plus a partition - no safety violation, liveness once healed."""
    report = run_standard_chaos("damysus", f=1, seed=1)
    assert report.safe
    assert report.violation is None
    assert report.live_after_heal
    assert report.ok
    assert report.crash_cycles == 1
    assert report.messages_dropped > 0
    assert report.views_committed_after_heal >= 3


def test_liveness_within_bounded_views_after_partition_heals():
    """After the partition heals the system settles within the budget:
    commits in fresh views arrive well before the liveness time cap."""
    report = run_standard_chaos("damysus", f=1, seed=2, loss=0.0, crashes=False)
    assert report.ok
    # Healing at 2.5 s; a handful of timeout-lengths suffices to settle.
    assert report.duration_ms < report.healed_at_ms + 10_000.0


def test_hotstuff_survives_loss_only_chaos():
    report = run_standard_chaos(
        "hotstuff", f=1, seed=3, loss=0.15, partition=False, crashes=False
    )
    assert report.ok


def test_chaos_reports_are_deterministic_per_seed():
    first = run_standard_chaos("damysus", f=1, seed=11)
    second = run_standard_chaos("damysus", f=1, seed=11)
    assert first == second


def test_different_seeds_generally_differ():
    a = run_standard_chaos("damysus", f=1, seed=1)
    b = run_standard_chaos("damysus", f=1, seed=12)
    assert (a.messages_dropped, a.duration_ms, a.timeouts_fired) != (
        b.messages_dropped,
        b.duration_ms,
        b.timeouts_fired,
    )


def test_unhealing_plan_is_rejected():
    with pytest.raises(SimulationError):
        run_chaos("damysus", plan=FaultPlan().lossy_links(0.1))  # no end_ms


def test_standard_plan_shape():
    plan = standard_chaos_plan(4, 1)
    assert len(plan.rules) == 2  # loss + partition
    assert len(plan.crashes) == 1
    assert plan.healed_by_ms() == 4_000.0
    bare = standard_chaos_plan(4, 1, loss=0.0, partition=False, crashes=False)
    assert bare.rules == [] and bare.crashes == []


def test_report_describe_mentions_the_verdicts():
    report = run_standard_chaos("damysus", f=1, seed=1)
    text = report.describe()
    assert "safety               OK" in text
    assert "liveness after heal  OK" in text
