"""Targeted-partition attacker: isolate the next ``f`` leaders.

A network-level adversary that knows the (public, round-robin) leader
schedule can do much better than random loss: it cuts exactly the
replicas about to lead off from everyone else, forcing a timeout and a
view-change per victim view.  The attack has two colluding halves:

* a :class:`~repro.core.faults.FaultPlan` (built by
  :func:`leader_isolation_plan`) that severs the victims' links for a
  window - this is the part a real attacker would run from the network,
  and it works unchanged on the simulator and on the socket runtime's
  ``FaultDecider``;
* a Byzantine *replica* that colludes by additionally suppressing its
  own traffic to the victims during the window, so the victims cannot
  even count on the attacker's (otherwise honest-looking) messages.

Round-robin leadership bounds the damage: each victim costs one timeout
and the schedule moves on, so commits resume as soon as the window
heals - which the campaign's LivenessOracle asserts.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import Behaviour
from repro.core.faults import FaultPlan
from repro.protocols.pacemaker import round_robin_leader

#: Attack window (virtual ms): long enough to cover the victims' views,
#: finite so liveness-after-heal is assertable.
ATTACK_START_MS = 600.0
ATTACK_END_MS = 2_600.0
#: First view whose leader is targeted (view 1 is usually mid-flight by
#: the time the window opens).
FIRST_TARGET_VIEW = 2


def victim_pids(num_replicas: int, f: int) -> tuple[int, ...]:
    """The leaders of the next ``f`` views past :data:`FIRST_TARGET_VIEW`."""
    victims: list[int] = []
    view = FIRST_TARGET_VIEW
    while len(victims) < f:
        pid = round_robin_leader(view, num_replicas)
        if pid not in victims:
            victims.append(pid)
        view += 1
    return tuple(victims)


def leader_isolation_plan(num_replicas: int, f: int) -> FaultPlan:
    """The network half of the attack: sever the victims for the window."""
    victims = set(victim_pids(num_replicas, f))
    others = set(range(num_replicas)) - victims
    plan = FaultPlan()
    if victims and others:
        plan.partition(
            victims, others, at_ms=ATTACK_START_MS, heal_ms=ATTACK_END_MS
        )
    return plan


class TargetedPartition(Behaviour):
    """Suppress all outbound traffic to the scheduled victims in-window."""

    WIRING = ("_victims", "suppressed_messages")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._victims = frozenset(victim_pids(self.num_replicas, self.config.f))
        self.suppressed_messages = 0

    def _attacking(self) -> bool:
        return ATTACK_START_MS <= self.now < ATTACK_END_MS

    def send(self, dest: int, payload: Any, size_bytes: int | None = None) -> None:
        if dest in self._victims and dest != self.pid and self._attacking():
            self.suppressed_messages += 1
            return
        super().send(dest, payload, size_bytes)

    def broadcast(
        self,
        dests: list[int] | tuple[int, ...],
        payload: Any,
        size_bytes: int | None = None,
        include_self: bool = False,
    ) -> None:
        if self._attacking():
            kept = tuple(d for d in dests if d not in self._victims or d == self.pid)
            self.suppressed_messages += len(dests) - len(kept)
            dests = kept
        super().broadcast(dests, payload, size_bytes, include_self)

