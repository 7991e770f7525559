"""Tests for TCP-like per-link FIFO ordering."""

import pytest

from repro.protocols.registry import PROTOCOL_ORDER
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from tests.conftest import run_protocol, seat_recorders


def payloads(recorder):
    return [payload for _, _, payload in recorder.received]


class ShrinkingLatency(LatencyModel):
    """Later messages get lower latency: reorders without FIFO."""

    def __init__(self):
        self.calls = 0

    def delay(self, src, dst, size_bytes, now):
        self.calls += 1
        return max(0.5, 10.0 - self.calls * 3.0)


def build(fifo):
    sim = Simulator()
    net = Network(sim, ShrinkingLatency(), fifo=fifo)
    a, b = seat_recorders(net, 0, 1)
    return sim, a, b


def test_without_fifo_messages_can_overtake():
    sim, a, b = build(fifo=False)
    for i in range(3):
        a.send(1, i)
    sim.run()
    assert payloads(b) != [0, 1, 2]


def test_with_fifo_order_is_preserved():
    sim, a, b = build(fifo=True)
    for i in range(3):
        a.send(1, i)
    sim.run()
    assert payloads(b) == [0, 1, 2]


def test_fifo_is_per_link():
    sim = Simulator()
    net = Network(sim, ShrinkingLatency(), fifo=True)
    a, b, c = seat_recorders(net, 0, 1, 2)
    a.send(1, "to-b")
    a.send(2, "to-c")  # different link: may arrive before/after freely
    sim.run()
    assert payloads(b) == ["to-b"]
    assert payloads(c) == ["to-c"]


@pytest.mark.parametrize("protocol", PROTOCOL_ORDER)
def test_protocols_correct_under_fifo_links(protocol):
    _, result = run_protocol(protocol, views=4, fifo_links=True)
    assert result.safe
    assert result.committed_blocks >= 4
