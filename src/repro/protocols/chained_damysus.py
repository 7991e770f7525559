"""Chained-Damysus (paper Section 7, Fig 5): pipelined Damysus.

2f+1 replicas, Checker + Accumulator per node, one block per view, and
execution below a 3-chain: one link less than chained HotStuff.

Per view each replica sends one proposal-or-vote message: the leader
broadcasts ``<b, sigma'>`` where sigma' is its TEE prepare-commitment
signature (doubling as its own vote, which the next leader extracts from
the proposal), and every replica sends a combined vote + new-view message
to the next view's leader (the paper notes the two "can be combined in
practice", footnote 6).  A block therefore costs 6 steps over 3 views -
Table 1's 12f + 6 messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from repro.errors import TEERefusal
from repro.core.block import Block
from repro.core.certificate import Accumulator, QuorumCert, genesis_qc
from repro.core.codec import OneOf
from repro.core.commitment import Commitment, c_combine
from repro.core.messages import MSG_HEADER_BYTES, ChainedProposal
from repro.core.phases import Phase
from repro.protocols.pipeline import PipelinedReplica
from repro.tee.accumulator import AccumulatorService
from repro.tee.checker import ChainedChecker


#: What justifies a chained block: genesis, a combined commitment or an accumulator.
Certificate = QuorumCert | Commitment | Accumulator


@dataclass(frozen=True)
class ChainedVote:
    """Combined prepare-vote + new-view message to the next leader.

    ``prep`` is ``None`` when the sender's prepare vote already travelled
    inside its proposal (the view's leader), or when the sender timed out
    without voting.
    """

    view: int  # the view the commitments were stamped in
    prep: Commitment | None
    nv: Commitment

    msg_type = "chained-vote"

    def wire_size(self) -> int:
        size = MSG_HEADER_BYTES + 4 + self.nv.wire_size()
        if self.prep is not None:
            size += self.prep.wire_size()
        return size


class ChainedDamysusReplica(PipelinedReplica):
    """One Chained-Damysus replica (Fig 5a) with its trusted services."""

    protocol_name = "chained-damysus"
    CHECKER = ChainedChecker
    ACCUMULATOR = AccumulatorService
    HANDLERS: ClassVar[dict[Any, Any]] = {
        ChainedProposal: "_handle_proposal", ChainedVote: "_handle_vote"
    }
    NEXT_VIEW_MSGS = (ChainedVote,)
    DEPTH = 2  # execute below the 2-chain: one phase less than chained HotStuff
    DURABLE: ClassVar[dict[str, Any]] = {"qc_prep": OneOf((QuorumCert, Accumulator, Commitment))}
    checker: ChainedChecker
    acc_service: AccumulatorService

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # qc_prep is durable, like the block store; the sealed checker
        # carries the trusted prepared/step state.
        self.qc_prep: Certificate = genesis_qc(self.store.genesis.hash)

    def _certified_block(self, qc: Certificate) -> Block | None:
        """The block ``qc`` certifies, if its body is here."""
        block = self.store.get(qc.hash) if qc.hash is not None else None
        return block if block is not None and block.view == qc.view else None

    # -- lifecycle ----------------------------------------------------------------------

    def _new_view_action(self) -> None:
        """Fig 5a lines 46-51; a leader holding the previous view's certificate proposes."""
        # Voting in view-1 already signed (view-1, nv_p) and the vote
        # doubled as the new-view.  A view entered any other way - at
        # start-up, by a timeout, by a jump - finds the checker short of
        # that step: TEEsign up to it (so the checker sits at (view,
        # prep_p) when the proposal arrives) and send the commitment.
        phi = self._tee_sign_new_view(self.checker, self.view - 1)
        if phi is not None:
            self.viewsync.send_new_view(
                self.leader_of(self.view), ChainedVote(self.view - 1, None, phi)
            )
        self._try_propose(self.view)

    # -- leader: proposing (Fig 5a lines 7-19) ------------------------------------------------

    def _certified_previous(self, view: int) -> bool:
        if self.qc_prep.cview == view - 1:
            return True
        # Stale certificate: wait for f+1 new-view commitments stamped
        # (view-1, nv_p) and certify the selection with the accumulator.
        phis = self._new_views.reached(view - 1)
        if phis is None:
            return False
        self.charge((self.quorum + 1) * self.costs.tee_op_ms(signs=1, verifies=1))
        try:
            self.qc_prep = self.acc_service.accumulate(phis)
        except TEERefusal:
            return False
        return True

    def _propose(self, view: int, trigger: tuple[int, Any] | None) -> None:
        qc = self.qc_prep
        b0 = self._certified_block(qc)
        if b0 is None:
            # A leader that jumped here cannot extend a block it does not
            # hold: take the trigger up again once it does.
            if trigger is not None:
                self._await_certified(qc, *trigger)
            return
        self._proposed.add(view)
        block = self._new_block(qc, view)
        self.charge_tee(signs=1, verifies=len(getattr(qc, "sigs", ()) or ()) or 1)
        try:
            phi_prep = self.checker.tee_prepare_chained(block, b0)
        except TEERefusal:
            self._proposed.discard(view)
            return
        self.broadcast_charged(
            ChainedProposal(view, block, phi_prep.sigs[0]), include_self=True
        )
        # The leader's prepare vote rides inside the proposal; only its
        # new-view commitment goes to the next leader explicitly.
        self.charge_tee(signs=1)
        phi_nv = self.checker.tee_sign()
        self.viewsync.send_new_view(self.leader_of(view + 1), ChainedVote(view, None, phi_nv))

    # -- all replicas: proposal processing (Fig 5a lines 21-38) ---------------------------------

    def _handle_proposal(self, sender: int, msg: ChainedProposal) -> None:
        if sender != self.leader_of(msg.view):
            return
        block = msg.block
        qc = self._just_of(block)
        if msg.view != qc.cview + 1:
            return
        # A replica that jumped here never saw the proposals of the views
        # it skipped: fetch the two ancestors the rules below need, and
        # take the proposal up again once they are here.
        b0 = self._certified_block(qc)
        if b0 is None:
            self._await_certified(qc, sender, msg)
            return
        just0 = self._just_of(b0)
        b1 = self._certified_block(just0)
        if b1 is None:
            self._await_certified(just0, sender, msg)
            return
        if sender == self.pid:
            # Own proposal: chain bookkeeping only, the vote already went out.
            phi_leader = None
        else:
            # (h_prep, v_prep, h_just, v_just, phase, sigs)
            phi_leader = Commitment(
                block.hash, msg.view, None, None, Phase.PREPARE, (msg.leader_sig,)
            )
            self.charge_verify(1)
            if not self._verify_tee_commitment(phi_leader, expected_sigs=1):
                return
            if not block.extends(qc.hash):
                return
            self.store.add(block)
        if sender != self.pid and msg.view not in self._voted:
            self._voted.add(msg.view)
            self.charge_tee(signs=2, verifies=self.quorum)  # TEEprepare + TEEsign
            try:
                phi = self.checker.tee_prepare_chained(block, b0)
            except TEERefusal:
                phi = None
            if phi is not None:
                phi_nv = self.checker.tee_sign()
                self.viewsync.send_new_view(
                    self.leader_of(msg.view + 1), ChainedVote(msg.view, phi, phi_nv)
                )
        if self.is_leader(msg.view + 1) and phi_leader is not None:
            # Extract the proposing leader's vote from the proposal.
            self._collect_vote(msg.view, block.hash, phi_leader, msg.leader_sig.signer)
        # Execute rule (Fig 5a lines 35-37): a 3-chain of direct parents.
        self._execute_chain(self._links(block), msg.view)
        self.pacemaker.view_succeeded()
        self.advance_view(msg.view + 1)

    # -- next leader: vote aggregation (Fig 5a lines 40-43) ----------------------------------------

    def _handle_vote(self, sender: int, msg: ChainedVote) -> None:
        self._store_new_view(msg)
        if not self.is_leader(msg.view + 1):
            return
        if msg.prep is not None:
            phi = msg.prep
            if phi.phase == Phase.PREPARE and phi.v_prep == msg.view and len(phi.sigs) == 1:
                self.charge_verify(1)
                if self._verify_tee_commitment(phi, expected_sigs=1):
                    self._collect_vote(msg.view, phi.h_prep, phi, phi.sigs[0].signer)
        # A stale leader may be able to propose now that new-views arrived.
        if self.view == msg.view + 1:
            self._try_propose(self.view, (sender, msg))

    def _certify(self, view: int, block_hash: Any, votes: list[Any]) -> None:
        self.qc_prep = c_combine(votes)

    def _await_certified(self, qc: Certificate, sender: int, msg: Any) -> None:
        """Park ``msg`` on the body ``qc`` names; dropped if that body is here."""
        # Here under another view, the certificate is forged: no fetch
        # could make it certify that block (``BlockFetch.await_block`` refuses).
        if qc.hash is not None:
            self.fetch.await_block(qc.hash, sender, msg)

    def _store_new_view(self, msg: ChainedVote) -> None:
        """Keep a valid new-view commitment for the stale-certificate path."""
        phi = msg.nv
        fields = (phi.phase, phi.h_prep, phi.v_prep, len(phi.sigs))
        if fields != (Phase.NEW_VIEW, None, msg.view, 1):
            return
        self.charge_verify(1)
        if not self._verify_tee_commitment(phi, expected_sigs=1):
            return
        self._new_views.add(phi.v_prep, phi, phi.sigs[0].signer)
