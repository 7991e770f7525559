"""Slow-drip leaders: propose just under the view timeout.

A Byzantine leader that never proposes loses its view to a timeout and
the backoff punishes it.  A *slow-drip* leader is subtler: it holds
every proposal back until just before the backups' pacemakers fire, so
each of its views still commits - no view-change, no backoff, no
fault signature in the message flow - but throughput bleeds to a
fraction of the honest rate.  No trusted component can stop this (the
proposal is perfectly well-formed); the defense is the pacemaker's
``max_timeout_ms`` cap plus the campaign's DegradationOracle, which
makes the bleed measurable instead of silent.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import Behaviour


class SlowDripLeader(Behaviour):
    """Defer ``_propose`` until a fraction of the current view timeout.

    The delay is computed from this replica's *own* pacemaker state -
    base timeout and backoff are protocol configuration shared by every
    replica, so the attacker can sit just under the honest deadline
    without any out-of-band knowledge.
    """

    #: Fraction of the current view timeout to sit on each proposal.
    #: 0.6 leaves the three phase round-trips enough slack to finish
    #: before the backups' timers fire, so no view-change is triggered.
    drip_fraction = 0.6
    VOLATILE = {"_drip_pending": set}  # views whose proposal is being sat on
    WIRING = ("dripped_views",)
    dripped_views = 0

    def _propose(self, view: int, *args: Any) -> None:
        if view in self._drip_pending:
            return
        self._drip_pending.add(view)
        self.dripped_views += 1
        delay_ms = self.pacemaker.current_timeout_ms * self.drip_fraction
        # The arguments as given: a quorum list, or a pipelined leader's
        # trigger (``None`` when it proposes on a certificate in hand).
        self.set_timer(delay_ms, lambda: self._drip_fire(view, *args))

    def _drip_fire(self, view: int, *args: Any) -> None:
        self._drip_pending.discard(view)
        if self.crashed or self.view > view:
            return  # the view moved on (or we died) while sitting on it
        super()._propose(view, *args)
