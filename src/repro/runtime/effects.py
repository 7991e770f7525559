"""The effect algebra: everything a protocol machine can ask of the world.

A sans-I/O protocol machine never touches a network, a timer wheel or a
CPU model directly.  Its handlers *describe* I/O as a list of effects, in
the exact order the actions should happen, and a :class:`Runtime` carries
them out - on the discrete-event simulator, on real asyncio sockets, or
on nothing at all (unit tests can simply assert on the list).

The effect list is everything a machine says to its host: what it
sends, the CPU it charges, its timers and the blocks it executed.  No
host learns of anything through another channel, so two hosts playing
the same list agree on who receives what.

Effect interpretation order is part of the contract: runtimes must apply
effects in list order, because the simulator derives its deterministic
event ordering from the order side effects are scheduled.

Effects are named tuples: immutable, and built at the cost of a tuple -
a handler emits one per fan-out, charge, timer and executed block, and
one :class:`Reply` for all the answers to clients one execution or one
admission pass gives.  Tell them apart by class (``type(effect) is Send``), as the
runtimes do; tuple equality looks at the fields only.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Protocol


class Send(NamedTuple):
    """Deliver ``payload`` to every pid of ``dests``, in order (best effort).

    One effect per fan-out: :meth:`Machine.broadcast
    <repro.runtime.machine.Machine.broadcast>` has already decided whether
    the sender is one of ``dests`` (Table 1 counts self-messages, so a
    self-message is a real send, delivered through the same path as peer
    traffic), and every host delivers to exactly these pids.
    """

    dests: tuple[int, ...]
    payload: Any
    size_bytes: int | None = None


class SetTimer(NamedTuple):
    """Arm one-shot timer ``timer_id`` to fire ``delay_ms`` from now.

    The runtime calls ``machine.on_timer(timer_id)`` when it fires.
    """

    timer_id: int
    delay_ms: float


class CancelTimer(NamedTuple):
    """Disarm a previously set timer (no-op if it already fired)."""

    timer_id: int


class Commit(NamedTuple):
    """Announce that ``block`` was executed (committed).

    The ledger has already applied the block by the time this effect is
    emitted; it is how a host learns of executions (the simulator's
    monitor records one per ``Commit``, the socket host counts them).
    ``txs`` counts the block's transactions that took effect: a re-carried
    copy the exactly-once ledger skipped is not one.
    """

    block: Any
    txs: int


class ChargeCpu(NamedTuple):
    """Occupy the machine's (single) CPU for ``ms`` of processing time.

    The simulator models this as busy time that delays subsequent sends
    and deliveries; wall-clock runtimes may ignore it (the real CPU burns
    real time).
    """

    ms: float = 0.0


class Reply(NamedTuple):
    """Answer clients: each ``(dest, reply)`` of ``sends`` in order, every
    reply charged ``cost_ms`` of CPU and sent as ``size_bytes``.

    It stands for ``ChargeCpu(cost_ms), Send((dest,), reply, size_bytes)``
    per reply (no ``ChargeCpu`` when ``cost_ms`` is 0), and the simulator
    plays it as exactly that.  A socket host, which models no CPU, adds
    each reply to the rows it packs for the client.
    """

    sends: list[tuple[int, Any]]
    cost_ms: float
    size_bytes: int


#: Union of every effect a machine may emit.
Effect = Send | SetTimer | CancelTimer | Commit | ChargeCpu | Reply


class Runtime(Protocol):
    """What a machine needs from whatever hosts it."""

    def execute(self, effects: list[Effect]) -> None:
        """Apply ``effects`` in order on behalf of the attached machine."""
        ...

    def machine_recovered(self) -> None:
        """The machine restarted: reset host-side state (CPU busy time)."""
        ...
