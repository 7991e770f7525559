"""Equivocating leaders: conflicting proposals within one view.

In HotStuff the network tolerates this (conflicting blocks can each
gather at most one quorum because quorums intersect), so the attack can
waste a view but never break safety.  In Damysus the checker makes the
attack *unexpressible*: ``createUniqueSign`` stamps each certificate with
a monotonic step, so a second ``TEEprepare`` in the same view yields a
commitment for the wrong phase, which no backup accepts - and the leader
has burned its own steps for the view.
"""

from __future__ import annotations

from repro.errors import TEERefusal
from repro.core.block import create_leaf
from repro.core.commitment import c_match
from repro.core.messages import BlockProposal, CommitmentMsg, ProposalMsg
from repro.core.phases import Phase
from repro.protocols.damysus import KIND_PREP_VOTE, DamysusReplica
from repro.protocols.hotstuff import HotStuffReplica


class EquivocatingHotStuffLeader(HotStuffReplica):
    """Sends conflicting proposals to two halves of the replica set."""

    WIRING = ("equivocations",)
    equivocations = 0

    def _propose(self, view: int, new_views) -> None:
        high_qc = max((m.justify for m in new_views), key=lambda qc: qc.view)
        if not high_qc.verify(self.scheme, self.quorum):
            return
        self._proposed.add(view)
        self.equivocations += 1
        block_a = create_leaf(
            high_qc.block_hash, view, self.mempool.take_block(self.now),
            created_at=self.now,
        )
        block_b = create_leaf(
            high_qc.block_hash, view, self.mempool.take_block(self.now),
            created_at=self.now,
        )
        self.store.add(block_a)
        self.store.add(block_b)
        half = len(self.replica_pids) // 2
        for pid in self.replica_pids[:half]:
            self.send(pid, ProposalMsg(view, block_a, high_qc))
        for pid in self.replica_pids[half:]:
            self.send(pid, ProposalMsg(view, block_b, high_qc))


class EquivocatingDamysusLeader(DamysusReplica):
    """Attempts two TEE-prepared proposals in one view.

    The first ``TEEprepare`` succeeds; the second consumes the checker's
    pre-commit step and returns a commitment stamped ``pcom_p``, so the
    conflicting proposal carries a signature no backup can validate as a
    prepare commitment.  ``failed_equivocations`` counts the attempts that
    produced an unusable certificate.
    """

    WIRING = ("failed_equivocations",)
    failed_equivocations = 0

    def _propose(self, view: int, phis) -> None:
        if not c_match(phis, self.quorum, None, view, Phase.NEW_VIEW):
            return
        try:
            acc = self.acc_service.accumulate(phis)
        except TEERefusal:
            return
        self._proposed.add(view)
        block_a = create_leaf(
            acc.prep_hash, view, self.mempool.take_block(self.now),
            created_at=self.now,
        )
        block_b = create_leaf(
            acc.prep_hash, view, self.mempool.take_block(self.now),
            created_at=self.now,
        )
        self.store.add(block_a)
        self.store.add(block_b)
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
        half = len(self.replica_pids) // 2
        for pid in self.replica_pids[:half]:
            self.send(pid, BlockProposal(view, block_a, acc, phi_a.sigs[0]))
        if phi_b is not None:
            for pid in self.replica_pids[half:]:
                self.send(pid, BlockProposal(view, block_b, acc, phi_b.sigs[0]))
        self.send(self.pid, CommitmentMsg(phi_a, KIND_PREP_VOTE))
