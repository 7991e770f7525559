"""Vote-withholding coalition: participate, but never help certify.

A withholder behaves correctly in every observable way except one: the
votes it owes the current leader (prepare and pre-commit in Damysus,
every ``VoteMsg`` where votes are signatures) are silently dropped on
the way out.  It still sends new-view messages - so leaders count it
when sizing their quorums - and it still proposes honestly when it
leads, which makes the attack invisible to any per-message validity
check.  (In chained HotStuff a vote doubles as the next leader's
new-view, so there the withholder reports only on a timeout.)

With up to ``f`` colluding withholders the remaining honest replicas
still form a quorum (f+1 of 2f+1 in Damysus, 2f+1 of 3f+1 in HotStuff),
so the attack costs latency, not liveness; one withholder more and the
system stalls, which is exactly the paper's fault bound.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import Behaviour
from repro.core.messages import CommitmentMsg, VoteMsg
from repro.protocols.damysus import KIND_PCOM_VOTE, KIND_PREP_VOTE
from repro.protocols.replica import BaseReplica

#: The votes a replica owes a leader, as handler-table keys: signature
#: votes, and Damysus's prepare and pre-commit commitments.
_VOTES = (VoteMsg, (CommitmentMsg, KIND_PREP_VOTE), (CommitmentMsg, KIND_PCOM_VOTE))


class VoteWithholding(Behaviour):
    """Withholds its phase votes from other leaders."""

    WIRING = ("votes_withheld",)
    votes_withheld = 0

    @classmethod
    def unfit(cls, base: type[BaseReplica]) -> str | None:
        if any(key in base.HANDLERS for key in _VOTES):
            return None
        return "its votes are neither VoteMsg nor Damysus's prepare and pre-commit commitments"

    def send_charged(self, dest: int, payload: Any) -> None:
        key = (CommitmentMsg, payload.kind) if isinstance(payload, CommitmentMsg) else type(payload)
        if dest != self.pid and key in _VOTES:
            self.votes_withheld += 1
            return
        super().send_charged(dest, payload)
