"""Tests for the fault-injection layer: rules, plans, network pipeline."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator
from repro.core.faults import (
    DROP,
    CrashEvent,
    FaultAction,
    FaultPlan,
    LinkFaultRule,
    PartitionRule,
)
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.core.rng import RngStream
from tests.conftest import seat_recorders


def build(n=3, latency=1.0):
    sim = Simulator()
    net = Network(sim, ConstantLatency(latency))
    return sim, net, seat_recorders(net, *range(n))


def stream(name="faults", seed=1):
    return RngStream(seed, name)


# -- LinkFaultRule ------------------------------------------------------------


def test_lossy_rule_drops_some_but_not_all():
    rule = LinkFaultRule(drop_prob=0.5)
    rng = stream()
    decisions = [rule.decide(0, 1, "m", 0.0, rng) for _ in range(200)]
    dropped = sum(1 for d in decisions if d is DROP)
    assert 50 < dropped < 150  # ~100 expected; bounds are generous


def test_rule_draws_are_deterministic_per_seed():
    rule = LinkFaultRule(drop_prob=0.3, duplicate_prob=0.2)
    first = [rule.decide(0, 1, "m", 0.0, stream(seed=9)) for _ in range(100)]
    second = [rule.decide(0, 1, "m", 0.0, stream(seed=9)) for _ in range(100)]
    assert first == second


def test_self_sends_are_never_faulted():
    rule = LinkFaultRule(drop_prob=1.0)
    assert rule.decide(2, 2, "m", 0.0, stream()) is None


def test_rule_respects_time_window():
    rule = LinkFaultRule(drop_prob=1.0, start_ms=10.0, end_ms=20.0)
    rng = stream()
    assert rule.decide(0, 1, "m", 5.0, rng) is None
    assert rule.decide(0, 1, "m", 10.0, rng) is DROP
    assert rule.decide(0, 1, "m", 19.9, rng) is DROP
    assert rule.decide(0, 1, "m", 20.0, rng) is None


def test_rule_filters_by_src_dst_and_msg_type():
    class Payload:
        msg_type = "vote"

    rule = LinkFaultRule(
        drop_prob=1.0,
        src=frozenset({0}),
        dst=frozenset({1}),
        msg_types=frozenset({"vote"}),
    )
    rng = stream()
    assert rule.decide(0, 1, Payload(), 0.0, rng) is DROP
    assert rule.decide(2, 1, Payload(), 0.0, rng) is None  # wrong src
    assert rule.decide(0, 2, Payload(), 0.0, rng) is None  # wrong dst
    assert rule.decide(0, 1, "proposal", 0.0, rng) is None  # wrong type


# -- PartitionRule ------------------------------------------------------------


def test_partition_drops_cross_group_until_heal():
    rule = PartitionRule(
        groups=(frozenset({0}), frozenset({1, 2})), start_ms=0.0, heal_ms=100.0
    )
    rng = stream()
    assert rule.decide(0, 1, "m", 50.0, rng) is DROP
    assert rule.decide(1, 0, "m", 50.0, rng) is DROP
    assert rule.decide(1, 2, "m", 50.0, rng) is None  # same group
    assert rule.decide(0, 1, "m", 100.0, rng) is None  # healed


def test_one_way_partition_only_cuts_traffic_leaving_first_group():
    rule = PartitionRule(
        groups=(frozenset({0}), frozenset({1})), symmetric=False
    )
    rng = stream()
    assert rule.decide(0, 1, "m", 0.0, rng) is DROP
    assert rule.decide(1, 0, "m", 0.0, rng) is None


def test_partition_ignores_ungrouped_pids():
    rule = PartitionRule(groups=(frozenset({0}), frozenset({1})))
    rng = stream()
    assert rule.decide(0, 5, "m", 0.0, rng) is None
    assert rule.decide(5, 0, "m", 0.0, rng) is None


# -- FaultPlan ----------------------------------------------------------------


def test_crash_event_requires_recovery_after_crash():
    with pytest.raises(SimulationError):
        CrashEvent(0, at_ms=100.0, recover_at_ms=100.0)


def test_partition_builder_requires_two_groups():
    with pytest.raises(SimulationError):
        FaultPlan().partition({0, 1})


def test_healed_by_ms_ignores_permanent_crashes():
    plan = FaultPlan().lossy_links(0.1, end_ms=500.0).crash(0, at_ms=100.0)
    assert plan.healed_by_ms() == 500.0
    plan.crash(1, at_ms=100.0, recover_at_ms=900.0)
    assert plan.healed_by_ms() == 900.0


def test_healed_by_ms_is_inf_for_unbounded_loss():
    assert math.isinf(FaultPlan().lossy_links(0.1).healed_by_ms())


def test_install_with_crashes_requires_replicas():
    sim, net, procs = build()
    plan = FaultPlan().crash(0, at_ms=10.0)
    with pytest.raises(SimulationError):
        plan.install(net, stream())


def test_installed_crash_schedule_fires():
    sim, net, procs = build()
    plan = FaultPlan().crash(1, at_ms=10.0, recover_at_ms=30.0)
    plan.install(net, stream(), replicas=procs)
    sim.run(until=20.0)
    assert procs[1].crashed
    sim.run(until=40.0)
    assert not procs[1].crashed


# -- network pipeline ---------------------------------------------------------


def test_total_loss_drops_everything_and_counts_drops():
    sim, net, procs = build()
    FaultPlan().lossy_links(1.0).install(net, stream())
    for _ in range(5):
        net.send(0, (1,), "m")
    sim.run()
    assert procs[1].received == []
    assert net.monitor.messages_dropped == 5
    assert net.monitor.dropped_by_type["str"] == 5
    assert net.monitor.messages_sent == 5  # sends still counted


def test_duplication_delivers_extra_copies_and_counts_them():
    sim, net, procs = build()
    FaultPlan().duplicating_links(1.0).install(net, stream())
    net.send(0, (1,), "m")
    sim.run()
    assert len(procs[1].received) == 2
    assert net.monitor.messages_duplicated == 1
    assert net.monitor.duplicated_by_type["str"] == 1


def test_extra_delay_defers_and_can_reorder():
    sim, net, procs = build(latency=1.0)
    net.add_fault_filter(
        lambda src, dst, payload: FaultAction(extra_delay_ms=10.0)
        if payload == "slow"
        else None
    )
    net.send(0, (1,), "slow")
    net.send(0, (1,), "fast")
    sim.run()
    payloads = [p for _, _, p in procs[1].received]
    assert payloads == ["fast", "slow"]  # the delayed message was overtaken


def test_partition_blocks_then_heals_end_to_end():
    sim, net, procs = build(n=3)
    FaultPlan().partition({0}, {1, 2}, at_ms=0.0, heal_ms=50.0).install(
        net, stream()
    )
    net.send(0, (1,), "before")
    sim.run(until=60.0)
    assert procs[1].received == []
    net.send(0, (1,), "after")  # now past heal_ms
    sim.run()
    assert [p for _, _, p in procs[1].received] == ["after"]


def test_chaos_filter_merges_duplicate_and_delay_rules():
    sim, net, procs = build()
    plan = FaultPlan().duplicating_links(1.0).delaying_links(5.0, delay_prob=1.0)
    plan.install(net, stream())
    assert len(net.fault_filters) == 1  # one merged filter per plan
    net.send(0, (1,), "m")
    sim.run()
    assert len(procs[1].received) == 2
    assert all(t > 1.0 for t, _, _ in procs[1].received)  # latency + extra


def test_identical_plans_and_seeds_replay_identically():
    def run_once():
        sim, net, procs = build()
        FaultPlan().lossy_links(0.4).duplicating_links(0.3).install(
            net, stream(seed=5)
        )
        for i in range(50):
            net.send(0, (1,), f"m{i}")
        sim.run()
        return [(t, p) for t, _, p in procs[1].received]

    assert run_once() == run_once()
