"""Simulated actors and timers.

A :class:`Process` is anything with an identity that can receive messages
from the :class:`~repro.sim.network.Network` and set timers on the
simulator: replicas, clients, and scripted adversaries all subclass it.

Timers wrap simulator events with cancellation, which is what consensus
pacemakers need (cancel the view timer when the view succeeds).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import SimulationError
from repro.sim.events import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network


class Timer:
    """A cancellable one-shot timer bound to a simulator event."""

    def __init__(self, sim: Simulator, delay: float, fn: Callable[[], None]) -> None:
        self._event: Event = sim.schedule(delay, self._fire)
        self._fn = fn
        self._fired = False
        self._cancelled = False

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._fn()

    def cancel(self) -> None:
        """Prevent the timer from firing (idempotent)."""
        self._cancelled = True
        self._event.cancel()

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not (self._fired or self._cancelled)


class Process:
    """Base class for simulated actors.

    Subclasses implement :meth:`on_message`.  A process learns its network
    when it is registered via :meth:`Network.add_process`; sending before
    registration is an error.
    """

    def __init__(self, pid: int, sim: Simulator) -> None:
        self.pid = pid
        self.sim = sim
        self.network: "Network | None" = None
        self.crashed = False
        # Virtual time until which this process's (single) CPU is busy.
        # Crypto and TEE costs are charged here so that a loaded leader
        # becomes a bottleneck exactly as on a t2.micro instance.
        self._busy_until = 0.0
        self.cpu_time_charged = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Hook called once the network wiring is complete."""

    def crash(self) -> None:
        """Silence this process: it stops sending and ignores deliveries."""
        self.crashed = True

    def recover(self) -> None:
        """Clear the crashed flag; the process handles traffic again.

        Messages that arrived while crashed are gone (deliveries to a
        crashed process are discarded, modelling lost volatile state).
        Subclasses restore whatever durable state their fault model
        grants them - see ``BaseReplica.recover`` for sealed TEE state.
        """
        self.crashed = False
        self._busy_until = self.sim.now

    # -- CPU accounting ------------------------------------------------------

    def charge(self, cost_ms: float) -> None:
        """Occupy this process's CPU for ``cost_ms`` of virtual time.

        Charged time delays both the process's subsequent sends and the
        handling of messages that arrive while it is busy, modelling a
        single-core replica.
        """
        if cost_ms <= 0:
            return
        self._busy_until = max(self._busy_until, self.sim.now) + cost_ms
        self.cpu_time_charged += cost_ms

    @property
    def busy_until(self) -> float:
        """Virtual time at which the CPU becomes free again."""
        return self._busy_until

    # -- messaging ---------------------------------------------------------

    def send(self, dest: int, payload: Any, size_bytes: int | None = None) -> None:
        """Send ``payload`` to ``dest``, after any pending CPU work.

        If the process has charged CPU time that extends past ``now``, the
        message is handed to the network only when the CPU frees up - the
        wire cannot outrun the crypto that produced the message.
        """
        network = self.network
        if network is None:
            raise SimulationError(f"process {self.pid} is not attached to a network")
        if self.crashed:
            return
        sim = self.sim
        wait = self._busy_until - sim.now
        if wait > 0:
            sim.schedule(wait, network.send, self.pid, dest, payload, size_bytes)
        else:
            network.send(self.pid, dest, payload, size_bytes)

    def broadcast(
        self,
        dests: Sequence[int],
        payload: Any,
        size_bytes: int | None = None,
        include_self: bool = False,
    ) -> None:
        """Send ``payload`` to every pid in ``dests`` (optionally self too)."""
        for dest in dests:
            if dest == self.pid and not include_self:
                continue
            self.send(dest, payload, size_bytes=size_bytes)
        if include_self and self.pid not in dests:
            self.send(self.pid, payload, size_bytes=size_bytes)

    def deliver(self, sender: int, payload: Any) -> None:
        """Called by the network when a message arrives.

        A message that arrives while the CPU is busy waits in the receive
        queue until the CPU frees up.
        """
        if self.crashed:
            return
        sim = self.sim
        wait = self._busy_until - sim.now
        if wait > 0:
            sim.schedule(wait, self.deliver, sender, payload)
            return
        self.on_message(sender, payload)

    def on_message(self, sender: int, payload: Any) -> None:
        """Handle an incoming message.  Subclasses override."""
        raise NotImplementedError

    # -- timers ------------------------------------------------------------

    def set_timer(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Arm a cancellable timer ``delay`` ms from now."""
        return Timer(self.sim, delay, fn)
