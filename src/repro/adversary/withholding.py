"""Vote-withholding coalition: participate, but never help certify.

A withholder behaves correctly in every observable way except one: the
votes it owes the current leader (prepare and pre-commit in Damysus,
all phase votes in HotStuff) are silently dropped on the way out.  It
still sends new-view messages - so leaders count it when sizing their
quorums - and it still proposes honestly when it leads, which makes the
attack invisible to any per-message validity check.

With up to ``f`` colluding withholders the remaining honest replicas
still form a quorum (f+1 of 2f+1 in Damysus, 2f+1 of 3f+1 in HotStuff),
so the attack costs latency, not liveness; one withholder more and the
system stalls, which is exactly the paper's fault bound.
"""

from __future__ import annotations

from repro.core.messages import CommitmentMsg, VoteMsg
from repro.protocols.damysus import KIND_PCOM_VOTE, KIND_PREP_VOTE, DamysusReplica
from repro.protocols.hotstuff import HotStuffReplica


class VoteWithholdingDamysusReplica(DamysusReplica):
    """Withholds its prepare and pre-commit votes from other leaders."""

    WIRING = ("votes_withheld",)
    votes_withheld = 0

    def send_charged(self, dest: int, payload) -> None:
        if (
            dest != self.pid
            and isinstance(payload, CommitmentMsg)
            and payload.kind in (KIND_PREP_VOTE, KIND_PCOM_VOTE)
        ):
            self.votes_withheld += 1
            return
        super().send_charged(dest, payload)


class VoteWithholdingHotStuffReplica(HotStuffReplica):
    """Withholds its phase votes from other leaders."""

    WIRING = ("votes_withheld",)
    votes_withheld = 0

    def send_charged(self, dest: int, payload) -> None:
        if dest != self.pid and isinstance(payload, VoteMsg):
            self.votes_withheld += 1
            return
        super().send_charged(dest, payload)
