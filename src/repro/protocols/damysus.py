"""Damysus (paper Section 6, Fig 2): 2f+1 replicas, 2 core phases.

Every replica carries a Checker and an Accumulator trusted component.
Six communication steps per view (Table 1's ``12f + 6`` messages,
self-messages included): new-view commitments, proposal, prepare votes,
prepare-QC broadcast, pre-commit votes, decide broadcast.

No locking phase: the accumulator certifies that the leader extended the
highest prepared block among f+1 TEE-attested reports, so a proposal with
a valid accumulator for the current view is safe by construction.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.errors import TEERefusal
from repro.core.commitment import Commitment, c_combine, c_match
from repro.core.messages import BlockProposal, CommitmentMsg
from repro.core.phases import Phase
from repro.protocols.replica import BaseReplica
from repro.tee.accumulator import AccumulatorService
from repro.tee.checker import Checker

#: CommitmentMsg kinds used on the wire.
KIND_NEW_VIEW = "damysus-new-view"
KIND_PREP_VOTE = "damysus-prep-vote"
KIND_PREP_QC = "damysus-prep-qc"
KIND_PCOM_VOTE = "damysus-pcom-vote"
KIND_DECIDE = "damysus-decide"


class DamysusReplica(BaseReplica):
    """One replica of Damysus (Fig 2a), with its trusted services.

    Also the commitment-vote engine Damysus-C reuses: ``HANDLERS`` gives
    :meth:`_combine` and :meth:`_store_and_vote` each step's parameters.
    """

    protocol_name = "damysus"
    CHECKER = Checker
    ACCUMULATOR = AccumulatorService
    checker: Checker
    acc_service: AccumulatorService
    PHASES = (Phase.PREPARE, Phase.PRECOMMIT)
    HANDLERS: ClassVar[dict[Any, Any]] = {
        BlockProposal: "_handle_proposal",
        (CommitmentMsg, KIND_NEW_VIEW): "_handle_new_view",
        (CommitmentMsg, KIND_PREP_VOTE): ("_combine", Phase.PREPARE, "_prep_votes", KIND_PREP_QC),
        (CommitmentMsg, KIND_PREP_QC): ("_store_and_vote", "_stored", KIND_PCOM_VOTE),
        (CommitmentMsg, KIND_PCOM_VOTE): ("_combine", Phase.PRECOMMIT, "_pcom_votes", KIND_DECIDE),
        (CommitmentMsg, KIND_DECIDE): "_handle_decide",
    }
    STALE_BLOCK_MSGS = (BlockProposal,)
    COLLECTORS = ("_new_views", "_prep_votes", "_pcom_votes")
    VIEW_SETS = ("_proposed", "_stored", "_decided")

    #: CommitmentMsg kind used for this protocol's new-view messages
    #: (Damysus-C overrides it).
    nv_kind = KIND_NEW_VIEW

    def _new_view_action(self) -> None:
        """Fig 2a lines 41-47: TEEsign until stamped (view, nv_p), then send."""
        phi = self._tee_sign_new_view(self.checker, self.view)
        if phi is not None:
            self.viewsync.send_new_view(self.leader_of(self.view), CommitmentMsg(phi, self.nv_kind))

    # -- prepare phase: leader ------------------------------------------------------------

    def _handle_new_view(self, sender: int, phi: Commitment) -> None:
        if not self.is_leader(phi.v_prep):
            return
        if phi.phase != Phase.NEW_VIEW or phi.h_prep is not None or len(phi.sigs) != 1:
            return
        self.charge_verify(1)
        if not self._verify_tee_commitment(phi, expected_sigs=1):
            return
        quorum = self._new_views.add(phi.v_prep, phi, phi.sigs[0].signer)
        if quorum is not None and phi.v_prep not in self._proposed:
            self._propose(phi.v_prep, quorum)

    def _propose(self, view: int, phis: list[Commitment]) -> None:
        """Fig 2a lines 6-10: accumulate, extend, TEE-prepare, broadcast."""
        if not c_match(phis, self.quorum, None, view, Phase.NEW_VIEW):
            return
        # accumList: one TEEstart + f TEEaccum + one TEEfinalize, each
        # verifying and re-signing inside the enclave.
        self.charge(
            (self.quorum + 1) * self.costs.tee_op_ms(signs=1, verifies=1)
        )
        try:
            acc = self.acc_service.accumulate(phis)
        except TEERefusal:
            return
        self._proposed.add(view)
        block = self._new_block(acc.prep_hash, view)
        self.charge_tee(signs=1, verifies=1)
        try:
            phi_prep = self.checker.tee_prepare(block.hash, acc)
        except TEERefusal:
            return
        self.broadcast_charged(
            BlockProposal(view, block, acc, phi_prep.sigs[0]), include_self=True
        )
        # The leader's own prepare vote travels as a self-message so that
        # vote aggregation is uniform (and message counts match Table 1).
        self.send_charged(self.pid, CommitmentMsg(phi_prep, KIND_PREP_VOTE))

    # -- prepare phase: backups -------------------------------------------------------------

    def _handle_proposal(self, sender: int, msg: BlockProposal) -> None:
        if sender != self.leader_of(msg.view):
            return
        if sender == self.pid:
            return  # own broadcast copy; the self-vote already went out
        acc = msg.acc
        if acc is None or not acc.finalized or len(acc) != self.quorum:
            return
        if acc.made_in_view != msg.view:
            return
        # Fig 2a lines 14-16: reconstruct and verify the leader's prepare
        # commitment, and check the proposal extends the accumulated block.
        phi_prep = Commitment(
            h_prep=msg.block.hash,
            v_prep=msg.view,
            h_just=acc.prep_hash,
            v_just=acc.prep_view,
            phase=Phase.PREPARE,
            sigs=(msg.leader_sig,),
        )
        self.charge_verify(2)  # leader commitment + accumulator signature
        if not self._verify_tee_commitment(phi_prep, expected_sigs=1):
            return
        if not msg.block.extends(acc.prep_hash):
            return
        self.store.add(msg.block)
        self.charge_tee(signs=1, verifies=1)
        try:
            phi = self.checker.tee_prepare(msg.block.hash, acc)
        except TEERefusal:
            return
        self.send_charged(self.leader_of(msg.view), CommitmentMsg(phi, KIND_PREP_VOTE))

    # -- the commitment-vote engine: one pair of steps per declared phase -----------------

    def _combine(
        self, sender: int, phi: Commitment, phase: Phase, collector: str, qc_kind: str
    ) -> None:
        """Leader: collect 1-commitments of ``phase``, combine, broadcast ``qc_kind``."""
        if not self.is_leader(phi.v_prep):
            return
        if phi.phase != phase or phi.h_prep is None or len(phi.sigs) != 1:
            return
        self.charge_verify(1)
        if not self._verify_tee_commitment(phi, expected_sigs=1):
            return
        # Prepare votes name the block they extend, and only votes that
        # agree on it combine; store votes carry no justification.
        key: tuple[Any, ...] = (phi.v_prep, phi.h_prep)
        if phase == Phase.PREPARE:
            key += (phi.h_just, phi.v_just)
        quorum = getattr(self, collector).add(key, phi, phi.sigs[0].signer)
        if quorum is None:
            return
        # Fig 2a's C-match.  The guards above, the collector key and its
        # per-signer dedup already imply it, so it never fails here.
        if not c_match(quorum, self.quorum, phi.h_prep, phi.v_prep, phase):
            return
        self.broadcast_charged(CommitmentMsg(c_combine(quorum), qc_kind), include_self=True)

    def _store_and_vote(self, sender: int, phi: Commitment, once: str, vote_kind: str) -> None:
        """Backup: ``TEEstore`` the leader's certificate once per view, vote ``vote_kind``."""
        if sender != self.leader_of(phi.v_prep):
            return
        seen: set[int] = getattr(self, once)
        if phi.v_prep in seen:
            return
        seen.add(phi.v_prep)
        self.charge_tee(signs=1, verifies=self.quorum)
        try:
            vote = self.checker.tee_store(phi)
        except TEERefusal:
            return
        self.send_charged(self.leader_of(phi.v_prep), CommitmentMsg(vote, vote_kind))

    def _handle_decide(self, sender: int, phi: Commitment) -> None:
        if sender != self.leader_of(phi.v_prep):
            return
        if phi.v_prep in self._decided:
            return
        if phi.phase != self.PHASES[-1] or phi.h_prep is None:
            return
        self.charge_verify(self.quorum)
        if not self._verify_tee_commitment(phi, expected_sigs=self.quorum):
            return
        self._decided.add(phi.v_prep)
        # Checkpoints certify pre-commit quorums only; for a three-phase
        # protocol the decide certificate is a commit quorum and this
        # records nothing.
        self.note_commit_qc(phi)
        block = self.store.get(phi.h_prep)
        if block is not None:
            self.execute_block(block, phi.v_prep)
        self.pacemaker.view_succeeded()
        self.advance_view(phi.v_prep + 1)  # on_view_entered sends the new-view
