"""Equivocating leaders: conflicting proposals within one view.

In HotStuff the network tolerates this (conflicting blocks can each
gather at most one quorum because quorums intersect), so the attack can
waste a view but never break safety.  In Damysus the checker makes the
attack *unexpressible*: ``createUniqueSign`` stamps each certificate with
a monotonic step, so a second ``TEEprepare`` in the same view yields a
commitment for the wrong phase, which no backup accepts - and the leader
has burned its own steps for the view.

The two engines propose different messages, so the attack has one body
for each: a protocol that handles neither HotStuff's ``ProposalMsg`` nor
Damysus's ``BlockProposal`` with its prepare vote has no body to run.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import Behaviour
from repro.core.block import create_leaf
from repro.core.commitment import c_match
from repro.core.messages import BlockProposal, CommitmentMsg, ProposalMsg
from repro.core.phases import Phase
from repro.errors import TEERefusal
from repro.protocols.damysus import KIND_PREP_VOTE
from repro.protocols.replica import BaseReplica

#: What each engine's body sends, as handler-table keys a protocol must have.
_BODIES = ((ProposalMsg,), (BlockProposal, (CommitmentMsg, KIND_PREP_VOTE)))


class EquivocatingLeader(Behaviour):
    """Sends conflicting proposals to two halves of the replica set."""

    WIRING = ("equivocations", "failed_equivocations")
    equivocations = failed_equivocations = 0

    @classmethod
    def unfit(cls, base: type[BaseReplica]) -> str | None:
        if any(all(key in base.HANDLERS for key in body) for body in _BODIES):
            return None
        return "its proposals are neither HotStuff's ProposalMsg nor Damysus's BlockProposal"

    def _propose(self, view: int, quorum: Any) -> None:
        if ProposalMsg in self.HANDLERS:
            self._equivocate(view, quorum)
        else:
            self._equivocate_past_the_checker(view, quorum)

    def _two_leaves(self, parent: bytes, view: int) -> tuple[Any, Any]:
        blocks = tuple(
            create_leaf(parent, view, self.mempool.take_block(self.now), created_at=self.now)
            for _ in range(2)
        )
        for block in blocks:
            self.store.add(block)
        return blocks

    def _split(self, first: Any, second: Any) -> None:
        half = len(self.replica_pids) // 2
        for pid in self.replica_pids[:half]:
            self.send(pid, first)
        if second is not None:
            for pid in self.replica_pids[half:]:
                self.send(pid, second)

    def _equivocate(self, view: int, new_views: Any) -> None:
        """HotStuff: two blocks on the highest certificate, one per half."""
        high_qc = max((m.justify for m in new_views), key=lambda qc: qc.view)
        if not high_qc.verify(self.scheme, self.quorum):
            return
        self._proposed.add(view)
        self.equivocations += 1
        block_a, block_b = self._two_leaves(high_qc.block_hash, view)
        self._split(ProposalMsg(view, block_a, high_qc), ProposalMsg(view, block_b, high_qc))

    def _equivocate_past_the_checker(self, view: int, phis: Any) -> None:
        """Damysus: two TEE-prepared proposals in one view.

        The first ``TEEprepare`` succeeds; the second consumes the checker's
        pre-commit step and returns a commitment stamped ``pcom_p``, so the
        conflicting proposal carries a signature no backup can validate as a
        prepare commitment.  ``failed_equivocations`` counts the attempts that
        produced an unusable certificate.
        """
        if not c_match(phis, self.quorum, None, view, Phase.NEW_VIEW):
            return
        try:
            acc = self.acc_service.accumulate(phis)
        except TEERefusal:
            return
        self._proposed.add(view)
        block_a, block_b = self._two_leaves(acc.prep_hash, view)
        try:
            phi_a = self.checker.tee_prepare(block_a.hash, acc)
        except TEERefusal:
            return
        # Second prepare in the same view: the checker has moved past the
        # prepare step, so this certificate is stamped with the wrong phase.
        try:
            phi_b = self.checker.tee_prepare(block_b.hash, acc)
        except TEERefusal:
            phi_b = None
        if phi_b is None or phi_b.phase != Phase.PREPARE:
            self.failed_equivocations += 1
        self._split(
            BlockProposal(view, block_a, acc, phi_a.sigs[0]),
            None if phi_b is None else BlockProposal(view, block_b, acc, phi_b.sigs[0]),
        )
        self.send(self.pid, CommitmentMsg(phi_a, KIND_PREP_VOTE))
