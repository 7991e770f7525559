"""Tests for the per-view trace collector."""


from repro.analysis.traces import TraceCollector
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def traced_run(protocol, views=5):
    system = ConsensusSystem(small_config(protocol))
    collector = TraceCollector(system)
    system.run_until_views(views, max_time_ms=120_000)
    return system, collector


def test_timeline_covers_committed_views():
    _, collector = traced_run("damysus")
    completed = collector.completed_views()
    assert len(completed) >= 5
    for trace in completed:
        assert trace.proposal_at is not None
        assert trace.first_executed_at >= trace.proposal_at
        assert trace.messages > 0


def test_phase_structure_damysus_vs_hotstuff():
    """Damysus shows 2 certificate fan-outs per view; HotStuff shows 3."""
    _, dam = traced_run("damysus")
    _, hs = traced_run("hotstuff")
    dam_rounds = dam.cert_rounds_per_view()
    hs_rounds = hs.cert_rounds_per_view()
    steady_dam = [dam_rounds[v] for v in sorted(dam_rounds)[1:-1]]
    steady_hs = [hs_rounds[v] for v in sorted(hs_rounds)[1:-1]]
    assert steady_dam and set(steady_dam) == {2}
    assert steady_hs and set(steady_hs) == {3}


def test_view_durations_consistent_with_monitor():
    system, collector = traced_run("damysus")
    mean_trace = sum(t.duration_ms for t in collector.completed_views()) / len(
        collector.completed_views()
    )
    # The monitor measures proposal -> execution per replica; the trace
    # measures proposal -> first execution, so it must be no larger.
    assert mean_trace <= system.monitor.mean_latency_ms() + 1e-6


def test_render_produces_table():
    _, collector = traced_run("chained-damysus")
    text = collector.render()
    assert "view timeline" in text
    assert "duration ms" in text


def test_views_sorted():
    _, collector = traced_run("damysus")
    views = [t.view for t in collector.views()]
    assert views == sorted(views)
