"""Idle pacing: a leader with nothing to order parks its proposal.

A view has a fixed price however little it carries (six communication
steps and a dozen TEE calls for Damysus), so a client-driven cluster that
proposes whenever it can spins through empty views.  One rule covers all
seven protocols: the chassis wraps each protocol's ``_propose`` once
(:func:`idle_rule`, from ``BaseReplica.__init_subclass__``), and while
the replica :func:`is_idle` the call waits in the replica's ``parked``
slot instead of running.  An accepted admission wakes it at zero delay,
so the rest of the instant lands in the same block; failing that it runs
as a heartbeat after half the view timeout, so an idle cluster changes
view at that cadence and no timer fires.  An open-loop pool (the paper's
synthetic full blocks) is never idle.  ``docs/protocols.md``, "Idle
pacing", has the argument.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable

from repro.runtime.machine import MachineTimer

if TYPE_CHECKING:
    from repro.protocols.replica import BaseReplica


def is_idle(replica: BaseReplica) -> bool:
    """Nothing to order: a closed-loop pool, empty, and no client transaction
    in a stored block above the last executed one.

    The last clause keeps a basic protocol's prepared block going to
    commit, and the chained pipeline proposing until its last non-empty
    block has executed.
    """
    mempool = replica.mempool
    if mempool.open_loop or mempool.pending():
        return False
    blocks_at = replica.store.blocks_at_view
    return not any(
        block.client_keys()
        for view in range(replica.ledger.last_executed_view + 1, replica.view + 1)
        for block in blocks_at(view)
    )


class ParkedProposal(MachineTimer):
    """A parked ``_propose`` call, as the timer that will make it.

    Armed as the heartbeat; :meth:`wake` re-arms it at zero delay.  It
    sits in a ``VOLATILE`` slot, so a crash cancels it, and the chassis
    cancels it on every view change (:func:`unpark`).
    """

    __slots__ = ("replica", "view", "call", "woken")

    def __init__(self, replica: BaseReplica, view: int, call: Callable[[], None]) -> None:
        heartbeat_ms = replica.pacemaker.current_timeout_ms / 2
        super().__init__(replica, replica.set_timer(heartbeat_ms, self._fire).timer_id)
        self.replica, self.view, self.call, self.woken = replica, view, call, False

    def wake(self) -> None:
        """Propose once the current instant is over, whatever else it admits."""
        if not self.woken:
            self.woken = True
            self.cancel()
            self.timer_id = self.replica.set_timer(0.0, self._fire).timer_id

    def _fire(self) -> None:
        self.replica.parked = None
        if self.replica.view == self.view:  # never into a later view
            self.call()


def unpark(replica: BaseReplica) -> None:
    """Drop the parked proposal, if there is one."""
    if replica.parked is not None:
        replica.parked.cancel()
        replica.parked = None


def idle_rule(propose: Callable[..., None]) -> Callable[..., None]:
    """A protocol's ``_propose`` under the idle rule."""

    @functools.wraps(propose)
    def rule(replica: BaseReplica, view: int, *args: Any) -> None:
        call = functools.partial(propose, replica, view, *args)
        if getattr(type(replica), "_propose") is not rule:  # noqa: B009 - no static type
            call()  # an override calling up (``super()._propose``) is past the rule
        elif not is_idle(replica):
            unpark(replica)
            call()
        elif replica.parked is None:
            replica.parked = ParkedProposal(replica, view, call)
        else:  # asked again in this view: the latest arguments, the same heartbeat
            replica.parked.call = call

    rule.idle_rule = True  # type: ignore[attr-defined]
    return rule
