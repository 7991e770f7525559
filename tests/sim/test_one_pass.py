"""The one-pass send paths against the per-message path they replace.

A seat plays a ``Send`` to several pids (a broadcast, the sender's own pid
included when the machine decided so) and a ``Reply`` with one network pass
per payload; the reference below plays
every copy as its own send through the full per-destination pass (the
seat's and the network's code before the fan-out).  Both must leave the
same heap - every entry's ``(time, seq)`` key and what it will do - the
same busy clock and the same monitor counters, and, run to the end, the
same deliveries.
"""

from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import msg_type_of, wire_size_of
from repro.core.faults import FaultAction
from repro.core.rng import RngStream
from repro.runtime.effects import ChargeCpu, Reply, Send
from repro.runtime.sim import MachineProcess
from repro.sim.events import Simulator
from repro.sim.latency import MatrixLatency
from repro.sim.network import SELF_DELIVERY_MS, Network
from repro.sim.regions import EU_REGIONS
from tests.conftest import seat_recorders

PIDS = (0, 1, 2, 3)
SENDER = 0


class Viewed:
    """A payload with a view, a label and a declared size."""

    msg_type = "viewed"

    def __init__(self, view: int) -> None:
        self.view = view

    def wire_size(self) -> int:
        return 300 + self.view


PAYLOADS = ("a", "b", Viewed(3), Viewed(4))


class PerMessage:
    """The sender's seat and its network, one send per destination."""

    def __init__(self, process: MachineProcess) -> None:
        self.process = process
        self.network = process.network

    def execute(self, effects: list[Any]) -> None:
        process = self.process
        for effect in effects:
            if type(effect) is Send:
                for dest in effect.dests:
                    self.send(dest, effect.payload, effect.size_bytes)
            elif type(effect) is ChargeCpu:
                process.charge(effect.ms)
            elif type(effect) is Reply:
                for dest, reply in effect.sends:
                    process.charge(effect.cost_ms)
                    self.send(dest, reply, effect.size_bytes)

    def send(self, dest: int, payload: Any, size_bytes: int | None) -> None:
        process = self.process
        if process.machine.crashed:
            return
        wait = process._busy_until - process.sim.now
        if wait > 0:
            process.sim.post(wait, self.network_send, process.pid, dest, payload, size_bytes)
        else:
            self.network_send(process.pid, dest, payload, size_bytes)

    def network_send(self, src: int, dst: int, payload: Any, size_bytes: int | None) -> None:
        network = self.network
        target = network.processes[dst]
        size = size_bytes if size_bytes is not None else wire_size_of(payload)
        label = msg_type_of(payload)
        network.monitor.record_send(label, size, getattr(payload, "view", None))
        for tap in network.taps:
            tap(src, dst, payload)
        copies = 1
        extra_delay = 0.0
        for fault in network.fault_filters:
            decision = fault(src, dst, payload)
            if decision is None or decision is False:
                continue
            if decision is True or decision.drop:
                network.monitor.record_drop(label)
                return
            copies += decision.duplicates
            extra_delay += decision.extra_delay_ms
        if copies > 1:
            network.monitor.record_duplicate(label, copies - 1)
        now = network.sim.now
        for _ in range(copies):
            if src == dst:
                delay = SELF_DELIVERY_MS + extra_delay
            else:
                delay = network.latency.delay(src, dst, size, now) + extra_delay
            if network.fifo:
                link = (src, dst)
                arrival = max(now + delay, network._last_arrival.get(link, 0.0))
                network._last_arrival[link] = arrival
                delay = arrival - now
            network.sim.post(delay, target.deliver, src, payload)


def fault_filter(seed: int):
    """Drops, duplicates or delays about a fifth of the sends each."""
    rng = RngStream(seed, "one-pass-faults")

    def decide(src: int, dst: int, payload: Any) -> Any:
        roll = rng.random()
        if roll < 0.2:
            return True
        if roll < 0.4:
            return FaultAction(duplicates=1)
        if roll < 0.6:
            return FaultAction(extra_delay_ms=rng.uniform(0.0, 5.0))
        return None

    return decide


def world(case: dict[str, Any]):
    sim = Simulator()
    latency = MatrixLatency(
        EU_REGIONS, EU_REGIONS.assign_round_robin(len(PIDS)), RngStream(case["seed"], "latency")
    )
    network = Network(sim, latency, fifo=case["fifo"])
    recorders = seat_recorders(network, *PIDS)
    taps: list[tuple[int, int, Any]] = []
    if case["tap"]:
        network.add_tap(lambda src, dst, payload: taps.append((src, dst, payload)))
    if case["faults"]:
        network.add_fault_filter(fault_filter(case["seed"]))
    sim.run(until=1.0)
    process = network.processes[SENDER]
    process.charge(case["busy_ms"])
    if case["crashed"]:
        recorders[SENDER].crash()
    return sim, network, process, recorders, taps


def heap_entries(sim: Simulator) -> list[tuple[Any, ...]]:
    """Each pending entry's key and what it will do, whichever path posted it."""
    entries = []
    for time, seq, fn, args, _handle in sorted(sim._heap, key=lambda entry: entry[:2]):
        if fn.__name__ == "deliver":
            entries.append((time, seq, "deliver", fn.__self__.pid, *args))
        else:
            src, dst, payload, size = args
            if isinstance(dst, tuple):
                (dst,) = dst
            entries.append((time, seq, "send", src, dst, payload, size))
    return entries


def counters(network: Network) -> dict[str, Any]:
    return {name: value for name, value in vars(network.monitor).items() if name != "executions"}


def outcome(sim, network, process, _recorders, taps):
    return (
        heap_entries(sim),
        process._busy_until,
        counters(network),
        list(taps),
    )


pids = st.sampled_from(PIDS)
payloads = st.sampled_from(PAYLOADS)
sizes = st.one_of(st.none(), st.integers(1, 4000))
effects = st.one_of(
    # Runs of one payload sent to one pid at a time (a loop of ``send``).
    st.builds(
        lambda dests, payload, size: [Send((dest,), payload, size) for dest in dests],
        st.lists(pids, min_size=1, max_size=4), payloads, sizes,
    ),
    # One fan-out, the sender's pid among them or not (a ``broadcast``).
    st.builds(
        lambda dests, payload, size: [Send(tuple(dests), payload, size)],
        st.lists(pids, max_size=4), payloads, sizes,
    ),
    st.builds(lambda ms: [ChargeCpu(ms)], st.sampled_from([0.0, 0.25, 3.0])),
    st.builds(
        lambda sends, cost, size: [Reply(sends, cost, size)],
        st.lists(st.tuples(pids, payloads), max_size=6),
        st.sampled_from([0.0, 0.0001, 0.4]),
        st.integers(1, 400),
    ),
)
cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "fifo": st.booleans(),
    "tap": st.booleans(),
    "faults": st.booleans(),
    "busy_ms": st.sampled_from([0.0, 0.5, 4.0]),
    "crashed": st.booleans(),
})


@settings(max_examples=300, deadline=None)
@given(case=cases, batches=st.lists(effects, min_size=1, max_size=6))
def test_one_pass_sends_match_the_per_message_path(case, batches):
    program = [effect for batch in batches for effect in batch]
    one_pass = world(case)
    reference = world(case)
    one_pass[2].execute(program)
    PerMessage(reference[2]).execute(program)
    assert outcome(*one_pass) == outcome(*reference)
    for sim, *_ in (one_pass, reference):
        sim.run()
    assert outcome(*one_pass) == outcome(*reference)
    assert [r.received for r in one_pass[3]] == [r.received for r in reference[3]]
