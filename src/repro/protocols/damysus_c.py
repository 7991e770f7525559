"""Damysus-C (paper Section 4.2.3 / Section 8): Checker only.

2f+1 replicas, but still 3 core phases: without an accumulator the leader
cannot *prove* it selected the highest prepared block, so HotStuff's
locking phase stays, with the lock held - and SafeNode evaluated - inside
the Checker (see :class:`~repro.tee.checker_lock.LockingChecker`).

Eight communication steps per view with N = 2f+1 and f+1 quorums:
new-view, proposal, prepare votes, prepare-QC, pre-commit votes,
pre-commit-QC, commit votes, decide.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.errors import TEERefusal
from repro.core.commitment import Commitment, c_match
from repro.core.messages import BlockProposal, CommitmentMsg
from repro.core.phases import Phase
from repro.protocols.damysus import DamysusReplica
from repro.tee.checker_lock import LockingChecker

KIND_NEW_VIEW = "damysus-c-new-view"
KIND_PREP_VOTE = "damysus-c-prep-vote"
KIND_PREP_QC = "damysus-c-prep-qc"
KIND_PCOM_VOTE = "damysus-c-pcom-vote"
KIND_PCOM_QC = "damysus-c-pcom-qc"
KIND_COM_VOTE = "damysus-c-com-vote"
KIND_DECIDE = "damysus-c-decide"


class DamysusCReplica(DamysusReplica):
    """One Damysus-C replica: LockingChecker, no accumulator, 3 phases."""

    protocol_name = "damysus-c"
    CHECKER = LockingChecker
    ACCUMULATOR = None  # the checker alone: no accumulator, so the commit phase stays
    PHASES = (Phase.PREPARE, Phase.PRECOMMIT, Phase.COMMIT)
    HANDLERS: ClassVar[dict[Any, Any]] = {
        BlockProposal: "_handle_proposal",
        (CommitmentMsg, KIND_NEW_VIEW): "_handle_new_view",
        (CommitmentMsg, KIND_PREP_VOTE): ("_combine", Phase.PREPARE, "_prep_votes", KIND_PREP_QC),
        # TEEstore of the prepare certificate stores the prepared block ...
        (CommitmentMsg, KIND_PREP_QC): ("_store_and_vote", "_stored", KIND_PCOM_VOTE),
        (CommitmentMsg, KIND_PCOM_VOTE): ("_combine", Phase.PRECOMMIT, "_pcom_votes", KIND_PCOM_QC),
        # ... and of the pre-commit certificate locks it in the TEE.
        (CommitmentMsg, KIND_PCOM_QC): ("_store_and_vote", "_locked", KIND_COM_VOTE),
        (CommitmentMsg, KIND_COM_VOTE): ("_combine", Phase.COMMIT, "_com_votes", KIND_DECIDE),
        (CommitmentMsg, KIND_DECIDE): "_handle_decide",
    }
    COLLECTORS = (*DamysusReplica.COLLECTORS, "_com_votes")
    VIEW_SETS = (*DamysusReplica.VIEW_SETS, "_locked")
    nv_kind = KIND_NEW_VIEW
    checker: LockingChecker

    # -- prepare phase ----------------------------------------------------------------

    def _propose(self, view: int, phis: list[Commitment]) -> None:
        """Extend the highest reported prepared block; justify with that report.

        Without an accumulator the justification is the single highest
        new-view commitment: TEE-signed, so its (prepared block, view)
        claim is honest, but nothing proves maximality - which is exactly
        why the locked-based SafeNode and the commit phase remain.
        """
        if not c_match(phis, self.quorum, None, view, Phase.NEW_VIEW):
            return
        justify = max(phis, key=lambda p: (p.v_just or 0))
        self._proposed.add(view)
        block = self._new_block(justify.h_just, view)
        self.charge_tee(signs=1, verifies=1)
        try:
            phi_prep = self.checker.tee_prepare_locked(block.hash, justify)
        except TEERefusal:
            return
        self.broadcast_charged(
            BlockProposal(
                view, block, acc=None, leader_sig=phi_prep.sigs[0],
                justify_commitment=justify,
            ),
            include_self=True,
        )
        self.send_charged(self.pid, CommitmentMsg(phi_prep, KIND_PREP_VOTE))

    def _handle_proposal(self, sender: int, msg: BlockProposal) -> None:
        if sender != self.leader_of(msg.view):
            return
        if sender == self.pid:
            return  # own broadcast copy
        justify = msg.justify_commitment
        if justify is None or justify.phase != Phase.NEW_VIEW:
            return
        if justify.v_prep != msg.view:
            return
        phi_prep = Commitment(
            h_prep=msg.block.hash,
            v_prep=msg.view,
            h_just=justify.h_just,
            v_just=justify.v_just,
            phase=Phase.PREPARE,
            sigs=(msg.leader_sig,),
        )
        self.charge_verify(2)  # leader commitment + justification commitment
        if not self._verify_tee_commitment(phi_prep, expected_sigs=1):
            return
        if not self._verify_tee_commitment(justify, expected_sigs=1):
            return
        if justify.h_just is None or not msg.block.extends(justify.h_just):
            return
        self.store.add(msg.block)
        self.charge_tee(signs=1, verifies=1)
        try:
            phi = self.checker.tee_prepare_locked(msg.block.hash, justify)
        except TEERefusal:
            return  # SafeNode (in-TEE) rejected the proposal
        self.send_charged(self.leader_of(msg.view), CommitmentMsg(phi, KIND_PREP_VOTE))
