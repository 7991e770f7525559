"""Timers on both hosts: when a machine's timer and a delayed frame fire.

On the TCP host a machine timer (``SetTimer``) and a frame a
``FaultDecider`` delays share one path, ``asyncio_net._Deadline``: a
coarse ``call_at`` to within the selector's resolution of the deadline,
then zero-delay polls on full loop turns until the deadline has passed.
The contract: nothing fires before its deadline, an idle loop fires well
inside the millisecond that a rounded-up epoll wait loses, a zero-delay
timer keeps ``call_later(0)``'s place behind the next turn's I/O, a cancel
works in either stage and ``close()`` leaves nothing armed.  A NaN delay
is refused on both hosts.
"""

import asyncio
import math
import socket
import statistics

import pytest

from repro.core.codec import encode_message
from repro.core.faults import FaultAction, FaultRule
from repro.core.messages import BlockRequest
from repro.errors import SimulationError
from repro.runtime import asyncio_net
from repro.runtime.asyncio_net import AsyncioRuntime, WallClock
from repro.runtime.effects import SetTimer
from repro.runtime.framing import encode_frame, encode_hello
from repro.runtime.machine import Machine
from repro.runtime.resilience.transport import FaultDecider
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from tests.conftest import seat_recorders

#: Sub-millisecond delays, spread over the millisecond epoll rounds up.
DELAYS_MS = [0.05 + 0.9 * i / 199 for i in range(200)]


class Timed(Machine):
    """Records deliveries with their clock time; ``start`` runs ``script``
    inside one entry point, so what it arms is one flush's effects."""

    def __init__(self, pid, clock, script=None):
        super().__init__(pid, clock)
        self.script = script
        self.received = []

    def start(self):
        if self.script is not None:
            self.script(self)

    def on_message(self, sender, payload):
        self.received.append((self.now, sender, payload))


def _runtime(script=None, **kwargs):
    return AsyncioRuntime(Timed(0, WallClock(), script), **kwargs)


async def _unreachable_peer():
    """An address nothing listens on: a frame handed to it stays queued."""
    server = await asyncio.start_server(lambda _reader, _writer: None, "127.0.0.1", 0)
    address = server.sockets[0].getsockname()[:2]
    server.close()
    await server.wait_closed()
    return address


async def _until(condition, timeout_s=5.0):
    give_up = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        assert asyncio.get_running_loop().time() < give_up, "timed out"
        await asyncio.sleep(0.001)


async def _turns(count):
    for _ in range(count):
        await asyncio.sleep(0)


async def _poll_stage(runtime, timer_id):
    """Spin the loop until timer ``timer_id`` has left its coarse stage."""
    deadline = runtime._timers[timer_id]
    coarse = deadline.handle
    loop = asyncio.get_running_loop()
    give_up = loop.time() + 5.0
    while deadline.handle is coarse:
        assert loop.time() < give_up, "the timer never left its coarse stage"
        await asyncio.sleep(0)
    return deadline


@pytest.fixture
def long_poll(monkeypatch):
    """Make the poll stage 50 ms long, so a test can act inside it."""
    monkeypatch.setattr(asyncio_net, "_SELECT_RESOLUTION_S", 0.05)


# -- no timer fires early, and an idle loop fires on time ----------------------


def test_no_sub_millisecond_timer_fires_before_its_delay():
    async def scenario():
        runtime = _runtime()
        machine = runtime.machine
        early = []
        fired = []
        for delay in DELAYS_MS:
            armed = machine.now

            def fire(armed=armed, delay=delay):
                elapsed = machine.now - armed
                fired.append(elapsed)
                if elapsed < delay:
                    early.append((delay, elapsed))

            machine.set_timer(delay, fire)
        await _until(lambda: len(fired) == len(DELAYS_MS))
        await runtime.close()
        return early, runtime._timers

    early, timers = asyncio.run(scenario())
    assert early == []
    assert timers == {}


def test_an_idle_loop_fires_inside_the_millisecond_epoll_rounds_up():
    """Armed one at a time on an idle loop, the median timer is late by a
    few microseconds; a ``call_later`` read about 0.6 ms here, because the
    selector's wait is rounded up to whole milliseconds."""

    async def scenario():
        runtime = _runtime()
        machine = runtime.machine
        loop = asyncio.get_running_loop()
        late = []
        for delay in DELAYS_MS:
            done = loop.create_future()
            armed = machine.now

            def fire(armed=armed, delay=delay, done=done):
                late.append(machine.now - armed - delay)
                done.set_result(None)

            machine.set_timer(delay, fire)
            await asyncio.wait_for(done, 5.0)
        await runtime.close()
        return late

    late = asyncio.run(scenario())
    assert min(late) >= 0.0
    assert statistics.median(late) < 0.25


# -- a zero-delay timer keeps call_later(0)'s place ----------------------------


def test_a_zero_delay_timer_fires_on_a_later_turn_never_inside_execute():
    async def scenario():
        log = []

        def script(machine):
            machine.set_timer(0.0, lambda: log.append(("fired", runtime._flushing is None)))
            log.append("armed")

        runtime = _runtime(script)
        runtime.start_machine()  # one entry: the timer is armed inside its flush
        log.append("returned")
        await _turns(2)
        await runtime.close()
        return log

    assert asyncio.run(scenario()) == ["armed", "returned", ("fired", True)]


def test_a_zero_delay_timer_fires_after_the_next_turns_io():
    """A frame already readable when the timer is armed reaches the machine
    first, as it would ahead of a ``call_later(0)``; a ``call_soon`` would
    run ahead of that turn's I/O."""
    msg = BlockRequest(b"\x07" * 32)

    async def scenario():
        runtime = _runtime()
        machine = runtime.machine
        host, port = await runtime.start_server()
        runtime.start_machine()
        peer = socket.create_connection((host, port))
        try:
            peer.sendall(encode_hello(1))
            await _until(lambda: runtime._inbound)
            await asyncio.sleep(0.01)  # the hello is read and the peer known
            log = []
            # Loopback delivery is synchronous: the frame is readable before
            # the timer is armed, in this same loop turn.
            peer.sendall(encode_frame(encode_message(msg)))
            machine.set_timer(0.0, lambda: log.append(("timer", len(machine.received))))
            await _until(lambda: log)
            return log, machine.received
        finally:
            peer.close()
            await runtime.close()

    log, received = asyncio.run(scenario())
    assert log == [("timer", 1)]
    assert [payload for _, _, payload in received] == [msg]


# -- cancelling, in either stage -----------------------------------------------


def test_cancel_in_the_coarse_stage_stops_the_fire():
    async def scenario():
        runtime = _runtime()
        fired = []
        timer = runtime.machine.set_timer(20.0, lambda: fired.append(True))
        deadline = runtime._timers[timer.timer_id]
        await asyncio.sleep(0.005)
        stage = deadline.handle
        timer.cancel()  # a CancelTimer effect
        await asyncio.sleep(0.04)
        await runtime.close()
        return fired, runtime._timers, stage.cancelled(), deadline.handle is stage

    fired, timers, cancelled, still_coarse = asyncio.run(scenario())
    assert fired == []
    assert timers == {}
    assert cancelled and still_coarse


def test_cancel_in_the_poll_stage_stops_the_fire(long_poll):
    async def scenario():
        runtime = _runtime()
        fired = []
        timer = runtime.machine.set_timer(60.0, lambda: fired.append(True))
        deadline = await _poll_stage(runtime, timer.timer_id)
        polling = not fired
        timer.cancel()
        await asyncio.sleep(0.1)
        await runtime.close()
        return polling, fired, runtime._timers, deadline.handle.cancelled()

    polling, fired, timers, cancelled = asyncio.run(scenario())
    assert polling
    assert fired == []
    assert timers == {}
    assert cancelled


# -- close() ---------------------------------------------------------------------


class _Delay(FaultRule):
    def __init__(self, delay_ms):
        self.delay_ms = delay_ms

    def decide(self, src, dst, payload, now, rng):
        return FaultAction(extra_delay_ms=self.delay_ms)


def test_close_in_the_poll_stage_reaches_no_machine_and_leaves_nothing_armed(long_poll):
    async def scenario():
        runtime = _runtime(fault_decider=FaultDecider([_Delay(60.0)], seed=1))
        machine = runtime.machine
        runtime.set_peers({1: await _unreachable_peer()})
        fired = []
        timer = machine.set_timer(60.0, lambda: fired.append(True))
        machine.send(1, BlockRequest(b"\x01" * 32))  # delayed by the decider
        (later,) = runtime._delayed
        deadline = await _poll_stage(runtime, timer.timer_id)
        polling = not fired
        enqueued = runtime.sent_messages
        await runtime.close()
        await asyncio.sleep(0.1)
        stray = asyncio.all_tasks() - {asyncio.current_task()}
        return (
            polling,
            fired,
            enqueued,
            runtime.sent_messages,
            runtime._timers,
            runtime._delayed,
            deadline.handle.cancelled() and later.handle.cancelled(),
            stray,
        )

    polling, fired, before, after, timers, delayed, cancelled, stray = asyncio.run(scenario())
    assert polling
    assert fired == []
    assert before == after == 0  # the delayed frame never left either
    assert timers == {} and delayed == set()
    assert cancelled
    assert stray == set()


# -- a delayed frame -------------------------------------------------------------


def test_a_fault_delay_of_a_third_of_a_millisecond_delivers_no_earlier():
    delay_ms = 0.3

    async def scenario():
        runtime = _runtime(fault_decider=FaultDecider([_Delay(delay_ms)], seed=1))
        machine = runtime.machine
        runtime.set_peers({1: await _unreachable_peer()})
        handed = []
        post = runtime._post
        runtime._post = lambda dest, frames: (handed.append(machine.now), post(dest, frames))
        gaps = []
        for number in range(50):
            sent = machine.now
            machine.send(1, BlockRequest(number.to_bytes(32, "big")))
            await _until(lambda: len(handed) > number)
            gaps.append(handed[number] - sent)
        await runtime.close()
        return gaps

    gaps = asyncio.run(scenario())
    assert min(gaps) >= delay_ms
    assert statistics.median(gaps) < delay_ms + 0.25


# -- a NaN delay is refused on both hosts ----------------------------------------


def test_the_tcp_host_refuses_a_nan_timer_and_a_nan_fault_delay():
    async def scenario():
        runtime = _runtime()
        with pytest.raises(ValueError, match="delay_ms=nan"):
            runtime.execute([SetTimer(1, math.nan)])
        delayed = _runtime(fault_decider=FaultDecider([_Delay(math.nan)], seed=1))
        delayed.set_peers({1: await _unreachable_peer()})
        with pytest.raises(ValueError, match="delay_ms=nan"):
            delayed.machine.send(1, BlockRequest(b"\x02" * 32))
        armed = (runtime._timers, delayed._delayed, delayed.sent_messages)
        await runtime.close()
        await delayed.close()
        return armed

    assert asyncio.run(scenario()) == ({}, set(), 0)


def test_the_tcp_host_fires_a_negative_delay_at_once():
    async def scenario():
        runtime = _runtime()
        fired = []
        runtime.machine.set_timer(-5.0, lambda: fired.append(True))
        await _turns(2)
        await runtime.close()
        return fired

    assert asyncio.run(scenario()) == [True]


def test_the_simulator_refuses_a_nan_timer():
    sim = Simulator()
    network = Network(sim, ConstantLatency(1.0))
    (machine,) = seat_recorders(network, 0)
    with pytest.raises(SimulationError, match="nan"):
        machine.set_timer(math.nan, lambda: None)
    assert sim.pending == 0
