"""Tests for the chaos run: the campaign's honest cell on the ``chaos`` plan.

The cell (adversary ``none``) seats nobody and plays loss, a partition and ``f``
crash/recover cycles; the cell must stay safe and be live once healed.
"""

from repro.adversary.registry import HONEST
from repro.analysis.campaign import base_plans, run_campaign, run_cell


def _chaos_cell(seed=1):
    """What ``repro campaign --protocols damysus --adversaries none --plans
    chaos --topologies eu --seed S`` runs."""
    return run_cell("damysus", HONEST, "chaos", "eu", seed=seed)


def test_damysus_standard_chaos_is_safe_and_recovers():
    """f crash/recover cycles under loss plus a partition: no safety
    violation, liveness once healed."""
    assert len(base_plans(4, 1)["chaos"].crashes) == 1
    cell = _chaos_cell(seed=1)
    assert cell.safe
    assert cell.violation is None
    assert cell.live_after_heal
    assert cell.ok
    assert cell.timeouts_fired > 0  # the faults did bite
    assert cell.commit_rate > 0


def test_liveness_within_bounded_views_after_partition_heals():
    """After the plan heals the system settles within the view budget,
    well before the liveness time cap."""
    cell = _chaos_cell(seed=2)
    assert cell.ok
    assert cell.views_to_recover is not None and cell.views_to_recover <= 30
    # Healing at 4 s; a handful of timeout-lengths suffices to settle.
    assert cell.duration_ms < cell.healed_at_ms + 10_000.0


def test_chaos_reports_are_deterministic_per_seed():
    assert _chaos_cell(seed=11) == _chaos_cell(seed=11)


def test_different_seeds_generally_differ():
    a, b = _chaos_cell(seed=1), _chaos_cell(seed=12)
    assert (a.duration_ms, a.commits, a.timeouts_fired) != (
        b.duration_ms,
        b.commits,
        b.timeouts_fired,
    )


def test_report_describe_mentions_the_verdicts():
    report = run_campaign(
        protocols=("damysus",),
        adversaries=("none",),
        plans=("chaos",),
        topologies=("eu",),
        seed=1,
    )
    text = report.describe()
    assert text.splitlines()[2].split()[:5] == ["damysus", "none", "chaos", "eu", "PASS"]
    assert "1 cells: 1 pass, 0 unsafe, 0 stalled" in text
