"""Tests for the simulated network."""

import pytest

from repro.core.codec import msg_type_of, wire_size_of
from repro.core.faults import DROP
from repro.errors import SimulationError
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import SELF_DELIVERY_MS, Network
from tests.conftest import seat_recorders


class SizedPayload:
    msg_type = "sized"
    view = 3

    def wire_size(self):
        return 1000


def build(latency=2.0, n=2):
    sim = Simulator()
    net = Network(sim, ConstantLatency(latency))
    return sim, net, seat_recorders(net, *range(n))


def test_duplicate_pid_rejected():
    sim, net, procs = build()
    with pytest.raises(SimulationError):
        seat_recorders(net, 0)


def test_unknown_destination_rejected():
    sim, net, procs = build()
    with pytest.raises(SimulationError):
        net.send(0, (99,), "x")


def test_self_send_uses_loopback_delay():
    sim, net, procs = build(latency=50.0)
    net.send(0, (0,), "self")
    sim.run()
    assert procs[0].received[0][0] == pytest.approx(SELF_DELIVERY_MS)


def test_monitor_counts_messages_and_bytes():
    sim, net, procs = build()
    net.send(0, (1,), SizedPayload())
    net.send(0, (0,), SizedPayload())  # self-messages are counted too
    sim.run()
    assert net.monitor.messages_sent == 2
    assert net.monitor.bytes_sent == 2000
    assert net.monitor.messages_by_type["sized"] == 2
    assert net.monitor.view_message_counts[3] == 2


def test_tap_sees_all_sends():
    sim, net, procs = build()
    seen = []
    net.add_tap(lambda src, dst, payload: seen.append((src, dst, payload)))
    net.send(0, (1,), "a")
    net.send(1, (0,), "b")
    assert seen == [(0, 1, "a"), (1, 0, "b")]


def test_drop_filter_suppresses_delivery_but_counts_send():
    sim, net, procs = build()
    net.add_fault_filter(lambda src, dst, payload: DROP if dst == 1 else None)
    net.send(0, (1,), "dropped")
    net.send(1, (0,), "kept")
    sim.run()
    assert procs[1].received == []
    assert len(procs[0].received) == 1
    assert net.monitor.messages_sent == 2


def test_wire_size_fallback_for_plain_payloads():
    assert wire_size_of("hello") == 64
    assert wire_size_of(SizedPayload()) == 1000


def test_msg_type_of_fallback():
    assert msg_type_of("hello") == "str"
    assert msg_type_of(SizedPayload()) == "sized"


def test_bandwidth_affects_delay():
    sim = Simulator()
    net = Network(sim, ConstantLatency(1.0, bandwidth=100.0))
    _, b = seat_recorders(net, 0, 1)
    net.send(0, (1,), SizedPayload())  # 1000 bytes / 100 B-per-ms = 10 ms
    sim.run()
    assert b.received[0][0] == pytest.approx(11.0)
