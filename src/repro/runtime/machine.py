"""Sans-I/O machine base: protocol logic in, effects out.

A :class:`Machine` is a pure state machine with an identity and an
injected :class:`~repro.core.clock.Clock`.  Its handlers never perform
I/O; helper methods (``send``, ``broadcast``, ``set_timer``, ``charge``)
append :mod:`~repro.runtime.effects` to an ordered buffer, and when the
outermost *entry point* (``on_message``, ``on_messages``, ``on_timer``,
``start``, ``crash``, ``recover``...) returns, the buffered effects are
handed - in emission order - to the attached
:class:`~repro.runtime.effects.Runtime` and also returned to the caller.

Emission order is load-bearing: the simulator runtime replays the effect
list inside the same simulator event that invoked the handler, so the
(time, seq) ordering of scheduled deliveries is bit-identical to the old
architecture where handlers called the network directly.

Entry points are declared per class in ``ENTRY_POINTS`` and wrapped
automatically for every subclass, so protocol modules just override
``dispatch``/``start`` as plain methods.  Calling an effectful helper
outside any entry point (unit tests poking a machine directly) flushes
each effect immediately, which preserves the old imperative behaviour.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from typing import Any, Callable, ClassVar

from repro.core.clock import Clock
from repro.core.codec import Packed
from repro.runtime.effects import (
    CancelTimer,
    ChargeCpu,
    Effect,
    Runtime,
    Send,
    SetTimer,
)

#: Entry points whose wrapper returns the flushed effect list (the pure
#: ``handler(input) -> list[Effect]`` shape); the rest keep their own
#: return value so internal callers (and tests) see normal results.
_RETURNS_EFFECTS = ("on_message", "on_messages", "on_timer")


def _wrap_entry(fn: Callable[..., Any], returns_effects: bool) -> Callable[..., Any]:
    """Wrap ``fn`` so effects flush when the outermost entry returns.

    A nested entry (one entry point calling another) costs one branch: it
    runs ``fn`` straight, and the outermost entry flushes for both.
    """
    if getattr(fn, "_machine_entry", False):
        return fn

    @functools.wraps(fn)
    def wrapper(self: "Machine", *args: Any, **kwargs: Any) -> Any:
        if self._entry_depth:
            return fn(self, *args, **kwargs)
        self._entry_depth = 1
        try:
            result = fn(self, *args, **kwargs)
        finally:
            self._entry_depth = 0
            # Most entries emit nothing (an admitted request, a counted
            # reply): only a non-empty buffer pays for the flush call.
            flushed = self._flush() if self._effects else []
        return flushed if returns_effects else result

    wrapper._machine_entry = True  # type: ignore[attr-defined]
    return wrapper


class MachineTimer:
    """Cancellable handle for a timer set by a machine."""

    __slots__ = ("_machine", "timer_id")

    def __init__(self, machine: "Machine", timer_id: int) -> None:
        self._machine = machine
        self.timer_id = timer_id

    def cancel(self) -> None:
        """Disarm the timer (idempotent; no-op after it fired)."""
        if self._machine._timer_fns.pop(self.timer_id, None) is not None:
            self._machine._emit(CancelTimer(self.timer_id))

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return self.timer_id in self._machine._timer_fns


class Machine:
    """Base class for sans-I/O actors (replicas, clients, adversaries)."""

    #: Methods wrapped as entry points on every subclass.
    ENTRY_POINTS: tuple[str, ...] = (
        "start", "on_message", "on_messages", "on_timer", "crash", "recover"
    )
    #: Messages served by their type alone: message class to the name of
    #: the ``(sender, payload)`` method that handles it.  Resolved once per
    #: class into ``_service``, where an ``on_message`` looks up the
    #: payload's exact type, so a subclass that overrides a handler by
    #: name is routed to its override.
    SERVICE_HANDLERS: ClassVar[dict[type, str]] = {}
    _service: ClassVar[dict[type, Callable[..., None]]] = {}
    #: The machine's seat in its runtime (``repro.protocols.state``).
    WIRING: ClassVar[tuple[str, ...]] = (
        "pid", "clock", "runtime", "crashed", "cpu_time_charged", "_effects", "_entry_depth",
        "_timer_fns", "_next_timer_id",
    )

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for name in cls.ENTRY_POINTS:
            fn = cls.__dict__.get(name)
            if fn is None or not callable(fn):
                continue
            setattr(cls, name, _wrap_entry(fn, name in _RETURNS_EFFECTS))
        cls._service = {
            message: getattr(cls, name) for message, name in cls.SERVICE_HANDLERS.items()
        }

    def __init__(self, pid: int, clock: Clock) -> None:
        self.pid = pid
        self.clock = clock
        self.runtime: Runtime | None = None
        self.crashed = False
        # Processing time this machine has accounted for; the runtime
        # decides what "busy" means (virtual busy-wait or nothing).
        self.cpu_time_charged = 0.0
        self._effects: list[Effect] = []
        self._entry_depth = 0
        self._timer_fns: dict[int, Callable[[], None]] = {}
        self._next_timer_id = 0

    @property
    def now(self) -> float:
        """Current time in ms, read from the injected clock."""
        return self.clock.now

    # -- effect plumbing ---------------------------------------------------

    def _emit(self, effect: Effect) -> None:
        self._effects.append(effect)
        if self._entry_depth == 0:
            self._flush()

    def _flush(self) -> list[Effect]:
        """Hand the (non-empty) buffer to the runtime; both callers check."""
        effects = self._effects
        self._effects = []
        if self.runtime is not None:
            self.runtime.execute(effects)
        return effects

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Hook called once the runtime wiring is complete."""

    def crash(self) -> None:
        """Silence this machine: it stops emitting and ignores input."""
        self.crashed = True

    def recover(self) -> None:
        """Clear the crashed flag; the machine handles input again."""
        self.crashed = False
        if self.runtime is not None:
            self.runtime.machine_recovered()

    # -- CPU accounting ----------------------------------------------------

    def charge(self, cost_ms: float) -> None:
        """Account ``cost_ms`` of processing time for this machine."""
        if cost_ms <= 0:
            return
        self.cpu_time_charged += cost_ms
        self._emit(ChargeCpu(cost_ms))

    # -- messaging ---------------------------------------------------------

    def send(self, dest: int, payload: Any, size_bytes: int | None = None) -> None:
        """Emit a point-to-point send (dropped while crashed)."""
        if self.crashed:
            return
        self._emit(Send((dest,), payload, size_bytes))

    def broadcast(
        self,
        dests: list[int] | tuple[int, ...],
        payload: Any,
        size_bytes: int | None = None,
        include_self: bool = False,
    ) -> None:
        """Emit one send of ``payload`` to ``dests`` in order (dropped while crashed).

        This is where a fan-out's receivers are decided, for every host:
        without ``include_self`` this machine is filtered out of ``dests``;
        with it, it keeps its place in ``dests`` or is appended last.
        """
        if self.crashed:
            return
        pid = self.pid
        if include_self:
            dests = tuple(dests) if pid in dests else (*dests, pid)
        elif pid in dests:
            dests = tuple(dest for dest in dests if dest != pid)
        else:
            dests = tuple(dests)
        self._emit(Send(dests, payload, size_bytes))

    def on_message(self, sender: int, payload: Any) -> None:
        """Handle an incoming message.  Subclasses override."""
        raise NotImplementedError

    def on_messages(self, sender: int, payloads: Iterable[Any]) -> None:
        """Handle ``payloads`` from ``sender`` in order, one ``on_message``
        each, as one entry: their effects flush once, when the last returns
        (or when taking the next payload raises).  A socket host hands over
        every frame one read completed, decoded as each is reached.  A
        packed frame (:class:`~repro.core.codec.Packed`) is one payload to a
        machine whose ``SERVICE_HANDLERS`` name its type; any other machine
        handles its rows, one ``on_message`` each, built as it reaches them."""
        service = self._service
        for payload in payloads:
            if isinstance(payload, Packed) and type(payload) not in service:
                for row in payload:
                    self.on_message(sender, row)
            else:
                self.on_message(sender, payload)

    # -- timers ------------------------------------------------------------

    def set_timer(self, delay_ms: float, fn: Callable[[], None]) -> MachineTimer:
        """Arm a cancellable one-shot timer ``delay_ms`` from now."""
        self._next_timer_id += 1
        timer_id = self._next_timer_id
        self._timer_fns[timer_id] = fn
        self._emit(SetTimer(timer_id, delay_ms))
        return MachineTimer(self, timer_id)

    def on_timer(self, timer_id: int) -> None:
        """Runtime callback: run the registered function, if still armed."""
        fn = self._timer_fns.pop(timer_id, None)
        if fn is not None:
            fn()


# ``Machine`` itself is not covered by ``__init_subclass__``; wrap its own
# effect-emitting entry points in place.
for _name in ("on_messages", "on_timer", "crash", "recover"):
    setattr(Machine, _name, _wrap_entry(Machine.__dict__[_name], _name in _RETURNS_EFFECTS))
del _name
