"""Simulated point-to-point network with composable fault injection.

By default links are reliable (paper Section 5): messages are never lost
or corrupted, but each delivery is delayed according to the installed
:class:`~repro.sim.latency.LatencyModel`.  Self-sends loop back with a tiny
local delay but are still counted by the monitor, because Table 1's message
counts explicitly "include self-messages".

The network also supports *taps* (observers used by tests and by scripted
adversaries to watch traffic) and a pipeline of *fault filters* used by
:mod:`repro.core.faults` to model lossy links, duplication, extra delay
and partitions.  A filter is called for every send and returns ``None``
(the message passes) or a :class:`~repro.core.faults.FaultAction` (drop,
duplicate, or delay).

Faults are never enabled in the paper-reproduction benchmarks; dropped
and duplicated messages are counted by the monitor so chaos experiments
can report exactly what they injected.

:meth:`Network.send` is the one send path, and it takes a sequence of
destinations: a seat hands it a ``Send`` effect's destinations whole,
exactly the pids the machine named (its own included only when the
machine's ``broadcast`` put it there).  The payload is sized, labelled and its view read once;
with no tap, filter or FIFO link the fan-out is counted once and each
destination costs one latency draw and one post.  Taps, filters and FIFO
links see each destination in turn, exactly as separate sends would.
Either way every destination's draws and posts come in list order, so
the heap keys are those of one send per destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.codec import msg_type_of, wire_size_of
from repro.errors import SimulationError
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.monitor import Monitor

if TYPE_CHECKING:  # pragma: no cover - the seat lives with the runtime
    from repro.core.faults import FaultAction
    from repro.runtime.sim import MachineProcess

    #: A fault filter: ``(src, dst, payload)`` -> the decision, or None to pass.
    FaultFilter = Callable[[int, int, Any], FaultAction | None]

__all__ = ["SELF_DELIVERY_MS", "Network"]

#: Loop-back delay for a process sending to itself, in ms.
SELF_DELIVERY_MS = 0.01


class Network:
    """Delivers payloads between registered processes with modelled delay."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel,
        monitor: Monitor | None = None,
        fifo: bool = False,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.monitor = monitor if monitor is not None else Monitor()
        self.processes: dict[int, MachineProcess] = {}
        self.taps: list[Callable[[int, int, Any], None]] = []
        # Composable fault pipeline; see the module docstring for the
        # filter contract.
        self.fault_filters: list[FaultFilter] = []
        # TCP-like per-link ordering: with fifo=True a message never
        # overtakes an earlier one on the same (src, dst) link.
        self.fifo = fifo
        self._last_arrival: dict[tuple[int, int], float] = {}

    # -- fault pipeline ----------------------------------------------------

    def add_fault_filter(self, fn: FaultFilter) -> None:
        """Append a filter to the fault pipeline."""
        self.fault_filters.append(fn)

    def add_process(self, process: MachineProcess) -> None:
        """Register a machine's seat; its pid must be unique on this network."""
        if process.pid in self.processes:
            raise SimulationError(f"duplicate pid {process.pid}")
        self.processes[process.pid] = process
        process.network = self

    def add_tap(self, tap: Callable[[int, int, Any], None]) -> None:
        """Install an observer called for every (src, dst, payload) send."""
        self.taps.append(tap)

    def send(
        self,
        src: int,
        dsts: Sequence[int],
        payload: Any,
        size_bytes: int | None = None,
    ) -> None:
        """Queue ``payload`` for delivery from ``src`` to each pid of ``dsts``.

        One pass per payload: size it, label it and read its view once,
        then per destination in order - count the send, show it to the
        taps, ask the fault filters, and for each copy draw one latency,
        clamp it to the link's FIFO order and post the delivery.  With no
        tap, filter or FIFO link installed the whole fan-out is counted by
        one ``record_send`` and each destination costs one latency draw and
        one post, in the same order.  An unknown pid raises
        :class:`SimulationError`.
        """
        if not dsts:
            return  # nothing to count: an empty fan-out sends nothing
        size = size_bytes if size_bytes is not None else wire_size_of(payload)
        label = msg_type_of(payload)
        view = getattr(payload, "view", None)
        processes = self.processes
        if self.taps or self.fault_filters or self.fifo:
            for dst in dsts:
                target = processes.get(dst)
                if target is None:
                    raise SimulationError(f"unknown destination pid {dst}")
                self._send_one(src, dst, target, payload, size, label, view)
            return
        self.monitor.record_send(label, size, view, len(dsts))
        sim = self.sim
        now = sim.now
        post = sim.post
        delay = self.latency.delay
        for dst in dsts:
            target = processes.get(dst)
            if target is None:
                raise SimulationError(f"unknown destination pid {dst}")
            if src == dst:
                post(SELF_DELIVERY_MS, target.deliver, src, payload)
            else:
                post(delay(src, dst, size, now), target.deliver, src, payload)

    def _send_one(
        self,
        src: int,
        dst: int,
        target: MachineProcess,
        payload: Any,
        size: int,
        label: str,
        view: int | None,
    ) -> None:
        """One destination of :meth:`send` through the taps, filters and FIFO clamp."""
        monitor = self.monitor
        monitor.record_send(label, size, view)
        for tap in self.taps:
            tap(src, dst, payload)
        copies = 1
        extra_delay = 0.0
        if self.fault_filters:
            for fault in self.fault_filters:
                decision = fault(src, dst, payload)
                if decision is None:
                    continue
                if decision.drop:
                    monitor.record_drop(label)
                    return
                copies += decision.duplicates
                extra_delay += decision.extra_delay_ms
            if copies > 1:
                monitor.record_duplicate(label, copies - 1)
        sim = self.sim
        now = sim.now
        for _ in range(copies):
            if src == dst:
                delay = SELF_DELIVERY_MS + extra_delay
            else:
                delay = self.latency.delay(src, dst, size, now) + extra_delay
            if self.fifo:
                link = (src, dst)
                arrival = max(now + delay, self._last_arrival.get(link, 0.0))
                self._last_arrival[link] = arrival
                delay = arrival - now
            sim.post(delay, target.deliver, src, payload)
