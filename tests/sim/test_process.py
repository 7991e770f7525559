"""Tests for a machine's seat on the simulator: sends, deliveries, CPU time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mempool import AdmissionVerdict
from repro.core.messages import ClientReply
from repro.errors import SimulationError
from repro.runtime.effects import ChargeCpu, Reply, Send
from repro.runtime.sim import MachineProcess
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from tests.conftest import Recorder, seat_recorders


def make_pair(latency_ms=1.0):
    sim = Simulator()
    net = Network(sim, ConstantLatency(latency_ms))
    a, b = seat_recorders(net, 0, 1)
    return sim, net, a, b


def test_send_delivers_with_latency():
    sim, _, a, b = make_pair(latency_ms=3.0)
    a.send(1, "hello")
    sim.run()
    assert b.received == [(3.0, 0, "hello")]


def test_send_without_network_raises():
    sim = Simulator()
    orphan = Recorder(9, sim)
    MachineProcess(orphan, sim)  # seated, but never added to a network
    with pytest.raises(SimulationError):
        orphan.send(0, "x")


def test_crashed_process_does_not_send():
    sim, net, a, b = make_pair()
    a.crash()
    net.processes[0].send((1,), "x")  # the seat drops it too, not only the machine
    sim.run()
    assert b.received == []


def test_crashed_process_ignores_deliveries():
    sim, _, a, b = make_pair()
    b.charge(20.0)
    b.crash()
    a.send(1, "x")
    sim.run()
    assert b.received == []
    # Dropped on arrival: no busy-wait re-delivery was scheduled.
    assert sim.events_processed == 1


def test_broadcast_excludes_self_by_default():
    sim, net, a, b = make_pair()
    (c,) = seat_recorders(net, 2)
    a.broadcast([0, 1, 2], "m")
    sim.run()
    assert a.received == []
    assert len(b.received) == 1
    assert len(c.received) == 1


def test_broadcast_include_self():
    sim, _, a, b = make_pair()
    a.broadcast([0, 1], "m", include_self=True)
    sim.run()
    assert len(a.received) == 1
    assert len(b.received) == 1


def test_charge_delays_send():
    sim, _, a, b = make_pair(latency_ms=1.0)
    a.charge(10.0)
    a.send(1, "after-busy")
    sim.run()
    # Handed to the network at t=10, arrives at t=11.
    assert b.received[0][0] == pytest.approx(11.0)


def test_charge_delays_message_handling():
    sim, _, a, b = make_pair(latency_ms=1.0)
    a.send(1, "m")
    b.charge(20.0)
    sim.run()
    # Arrives at t=1 but the receiver's CPU is busy until t=20.
    assert b.received[0][0] == pytest.approx(20.0)


def test_charge_accumulates():
    _, net, a, _ = make_pair()
    a.charge(3.0)
    a.charge(4.0)
    assert net.processes[0]._busy_until == pytest.approx(7.0)
    assert a.cpu_time_charged == pytest.approx(7.0)


def test_charge_nonpositive_is_noop():
    _, net, a, _ = make_pair()
    seat = net.processes[0]
    a.charge(0.0)
    seat.charge(0.0)
    seat.charge(-5.0)
    assert seat._busy_until == 0.0
    assert a.cpu_time_charged == 0.0


# -- a Reply effect plays as the charge-and-send pair per reply --------------------


def play(effects):
    """Seat pid 0 with clients 1 and 2, let it play ``effects`` at t=0 on an
    otherwise idle seat, and report what the world saw."""
    sim, net, a, _b = make_pair(latency_ms=2.0)
    (c,) = seat_recorders(net, 2)
    process = net.processes[0]
    process.charge(0.5)  # a busy CPU: every charge moves the sends behind it
    process.execute(effects)
    sim.run()
    monitor = net.monitor
    return (
        [(pid, received) for pid, recorder in ((1, _b), (2, c)) for received in recorder.received],
        process._busy_until,
        (monitor.messages_sent, monitor.bytes_sent),
        a.received,
    )


@settings(max_examples=100, deadline=None)
@given(
    replies=st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(0, 9)), min_size=1,
                     max_size=8),
    cost_ms=st.sampled_from([0.0, 0.0001, 0.25, 1.5]),
    size_bytes=st.integers(1, 64),
)
def test_a_reply_effect_plays_as_a_charge_and_a_send_per_reply(replies, cost_ms, size_bytes):
    sends = [
        (dest, ClientReply(0, dest, tx_id, 1.0, AdmissionVerdict.DUPLICATE))
        for dest, tx_id in replies
    ]
    reference = []
    for dest, reply in sends:
        if cost_ms > 0:  # a machine emits no ChargeCpu for a free operation
            reference.append(ChargeCpu(cost_ms))
        reference.append(Send(dest, reply, size_bytes))
    assert play([Reply(sends, cost_ms, size_bytes)]) == play(reference)
