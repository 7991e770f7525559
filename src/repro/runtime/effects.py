"""The effect algebra: everything a protocol machine can ask of the world.

A sans-I/O protocol machine never touches a network, a timer wheel or a
CPU model directly.  Its handlers *describe* I/O as a list of effects, in
the exact order the actions should happen, and a :class:`Runtime` carries
them out - on the discrete-event simulator, on real asyncio sockets, or
on nothing at all (unit tests can simply assert on the list).

Effect interpretation order is part of the contract: runtimes must apply
effects in list order, because the simulator derives its deterministic
event ordering from the order side effects are scheduled.

Effects are named tuples: immutable, and built at the cost of a tuple -
a handler emits one per send, charge and timer, and one :class:`Reply`
for all the answers to clients one execution or one admission pass
gives.  Tell them apart by class (``type(effect) is Send``), as the
runtimes do; tuple equality looks at the fields only.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Protocol


class Send(NamedTuple):
    """Deliver ``payload`` to the peer ``dest`` (best effort)."""

    dest: int
    payload: Any
    size_bytes: int | None = None


class Broadcast(NamedTuple):
    """Deliver ``payload`` to every pid in ``dests`` in order.

    ``include_self`` mirrors the paper's message counting: self-messages
    are real sends (Table 1 "includes self-messages"), delivered through
    the same path as peer traffic.
    """

    dests: tuple[int, ...]
    payload: Any
    include_self: bool = False
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
    """Announce that ``block`` was executed (committed) in ``view``.

    Runtimes use this for progress reporting; the ledger has already
    applied the block by the time this effect is emitted.  ``txs`` counts
    the block's transactions that took effect: a re-carried copy the
    exactly-once ledger skipped is not one.
    """

    block: Any
    view: int
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

    It stands for ``ChargeCpu(cost_ms), Send(dest, reply, size_bytes)``
    per reply (no ``ChargeCpu`` when ``cost_ms`` is 0), and the simulator
    plays it as exactly that.  A socket host, which models no CPU, adds
    each reply to the rows it packs for the client.
    """

    sends: list[tuple[int, Any]]
    cost_ms: float
    size_bytes: int


#: Union of every effect a machine may emit.
Effect = Send | Broadcast | SetTimer | CancelTimer | Commit | ChargeCpu | Reply


class Runtime(Protocol):
    """What a machine needs from whatever hosts it."""

    def execute(self, effects: list[Effect]) -> None:
        """Apply ``effects`` in order on behalf of the attached machine."""
        ...

    def machine_recovered(self) -> None:
        """The machine restarted: reset host-side state (CPU busy time)."""
        ...
