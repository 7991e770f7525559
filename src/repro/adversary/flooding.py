"""Resource-exhaustion adversary: flooding future-view traffic.

A Byzantine node cannot forge certificates, but it can try to exhaust
honest replicas' memory by spraying messages for far-future views, which
honest nodes buffer until the view arrives.  The replica base bounds its
buffer (``MAX_BUFFERED_MESSAGES``), so the flood costs the attacker
bandwidth and buys nothing - which the flooding tests verify.

The junk is the commitment engine's new-view message, in the protocol's
own kind: a protocol that takes no new-view commitments has nothing to
buffer it under.
"""

from __future__ import annotations

from repro.adversary.behaviors import Behaviour
from repro.core.commitment import Commitment
from repro.core.messages import CommitmentMsg
from repro.core.phases import Phase
from repro.protocols.damysus import DamysusReplica
from repro.protocols.replica import BaseReplica


class Flooding(Behaviour):
    """Participates normally but floods far-future junk at startup."""

    #: How many junk messages to spray per peer.
    flood_count = 2_000

    @classmethod
    def unfit(cls, base: type[BaseReplica]) -> str | None:
        if issubclass(base, DamysusReplica):
            return None
        return "it takes no new-view commitments to forge"

    def start(self) -> None:
        junk_sig = self.scheme.sign(self.pid, b"junk")  # not a TEE signature
        for offset in range(self.flood_count):
            phi = Commitment(
                h_prep=None,
                v_prep=1_000 + offset,  # far future view
                h_just=b"\x00" * 32,
                v_just=0,
                phase=Phase.NEW_VIEW,
                sigs=(junk_sig,),
            )
            self.broadcast(self.replica_pids, CommitmentMsg(phi, self.nv_kind))
        super().start()
