"""Omission-style Byzantine behaviours.

A silent leader participates normally as a backup but never proposes when
it is its turn to lead, forcing every one of its views to time out.  This
exercises the pacemaker / view-change path without any equivocation.
"""

from __future__ import annotations

from repro.protocols.damysus import DamysusReplica
from repro.protocols.hotstuff import HotStuffReplica


class SilentLeaderHotStuff(HotStuffReplica):
    """A HotStuff replica that stays mute whenever it is the leader."""

    WIRING = ("withheld_proposals",)
    withheld_proposals = 0

    def _propose(self, view, new_views) -> None:
        self.withheld_proposals += 1
        return  # never propose; the view will time out


class SilentLeaderDamysus(DamysusReplica):
    """A Damysus replica that stays mute whenever it is the leader."""

    WIRING = ("withheld_proposals",)
    withheld_proposals = 0

    def _propose(self, view, phis) -> None:
        self.withheld_proposals += 1
        return  # never propose; the view will time out
