"""What every attack is: a behaviour, written once for every protocol.

A :class:`Behaviour` overrides only the untrusted hooks its attack
deviates on (``_propose``, ``send_charged``, ``start``, ``crash``...),
and the registry composes it in front of a protocol's replica class
(:meth:`~repro.adversary.registry.AdversarySpec.replica_class`).  It
subclasses :class:`~repro.protocols.replica.BaseReplica` so that ``super()``
reaches the protocol's own hooks and ``repro lint`` walks its overrides
like any replica's.  What the behaviour needs of a protocol - a message it
speaks, a Checker to roll back - is :meth:`Behaviour.unfit`, the one place
an attack's support comes from.

The silent leader lives here too: it participates normally as a backup
but never proposes when it is its turn to lead, forcing every one of its
views to time out.  This exercises the pacemaker / view-change path
without any equivocation.
"""

from __future__ import annotations

from typing import Any

from repro.protocols.replica import BaseReplica


class Behaviour(BaseReplica):
    """A Byzantine deviation, composed in front of a protocol's replica."""

    @classmethod
    def unfit(cls, base: type[BaseReplica]) -> str | None:
        """Why this behaviour cannot run in front of ``base`` (``None``: it can)."""
        return None


class SilentLeader(Behaviour):
    """A replica that stays mute whenever it is the leader."""

    WIRING = ("withheld_proposals",)
    withheld_proposals = 0

    def _propose(self, view: int, *args: Any) -> None:
        self.withheld_proposals += 1
        return  # never propose; the view will time out
