"""Chained-Damysus (paper Section 7, Fig 5): pipelined Damysus.

2f+1 replicas, Checker + Accumulator per node, one block proposed per
view.  Executing a block needs only a chain of 3 consecutive blocks (one
less than chained HotStuff) because Damysus has one phase less.

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
from repro.core.commitment import Commitment, c_combine
from repro.core.messages import MSG_HEADER_BYTES, ChainedProposal
from repro.core.phases import Phase
from repro.protocols.replica import BaseReplica
from repro.tee.accumulator import AccumulatorService
from repro.tee.checker import ChainedChecker


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


class ChainedDamysusReplica(BaseReplica):
    """One Chained-Damysus replica (Fig 5a) with its trusted services."""

    protocol_name = "chained-damysus"
    CHECKER = ChainedChecker
    HANDLERS: ClassVar[dict[Any, Any]] = {
        ChainedProposal: "_handle_proposal",
        ChainedVote: "_handle_vote",
    }
    STALE_BLOCK_MSGS = (ChainedProposal,)
    NEXT_VIEW_MSGS = (ChainedVote,)
    # _new_views gathers new-view commitments under the view they were
    # stamped in, one per TEE signer (the stale-certificate path).
    COLLECTORS = ("_votes", "_new_views")
    VIEW_SETS = ("_proposed", "_voted")
    # Votes stamped view-1 are still being collected by this view's
    # leader, so prune two views back.
    PRUNE_SLACK = 2
    checker: ChainedChecker

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.acc_service = AccumulatorService(
            self.pid, self.scheme, self.directory, self.quorum
        )
        # qc_prep and the per-view block index survive a crash on stable
        # storage (certificates and block bodies); the sealed checker
        # carries the trusted prepared/step state.
        self.qc_prep: QuorumCert | Commitment | Accumulator = genesis_qc(
            self.store.genesis.hash
        )
        self.blocks: dict[int, Block] = {0: self.store.genesis}

    # -- helpers --------------------------------------------------------------------

    def _just_of(self, block: Block) -> QuorumCert | Accumulator:
        if block.justify is not None:
            return block.justify
        return genesis_qc(self.store.genesis.hash)

    def _keep_stale_block(self, block: Block) -> None:
        super()._keep_stale_block(block)
        self.blocks.setdefault(block.view, block)

    # -- lifecycle ----------------------------------------------------------------------

    def start(self) -> None:
        self.pacemaker.start_view(self.view)
        # Startup consumes the TEE's (0, nv_p) step so every checker sits
        # at (1, prep_p) when view 1's proposal arrives; the resulting
        # commitment is the (unneeded) new-view message for view 1.
        self.charge_tee(signs=1)
        phi = self.checker.tee_sign()
        self.send_charged(self.leader_of(1), ChainedVote(0, None, phi))
        self._new_view_action()

    def _new_view_action(self) -> None:
        """A leader holding the previous view's certificate proposes at once."""
        self._try_propose(self.view)

    def on_view_timeout(self, view: int) -> None:
        # Votes double as new-views on the happy path; only a timeout
        # sends an explicit one, after the shared advance.
        super().on_view_timeout(view)
        # Fig 5a lines 46-51.
        phi = self._tee_sign_new_view(self.checker, self.view - 1)
        if phi is not None:
            self.send_charged(self.leader_of(self.view), ChainedVote(self.view - 1, None, phi))

    def on_recovered(self) -> None:
        # No rejoin action: a restarted leader has forgotten what it
        # proposed, and the checker refuses a second prepare anyway.  It
        # rejoins on the next proposal or timeout.
        pass

    # -- leader: proposing (Fig 5a lines 7-19) ------------------------------------------------

    def _try_propose(self, view: int) -> None:
        if view in self._proposed or not self.is_leader(view):
            return
        if self.qc_prep.cview != view - 1:
            # Stale certificate: wait for f+1 new-view commitments stamped
            # (view-1, nv_p) and certify the selection with the accumulator.
            phis = self._new_views.reached(view - 1)
            if phis is None:
                return
            self.charge((self.quorum + 1) * self.costs.tee_op_ms(signs=1, verifies=1))
            try:
                self.qc_prep = self.acc_service.accumulate(phis)
            except TEERefusal:
                return
        self._propose(view)

    def _propose(self, view: int) -> None:
        qc = self.qc_prep
        b0 = self.blocks.get(qc.view)
        if b0 is None or qc.hash != b0.hash:
            return
        self._proposed.add(view)
        block = self.blocks[view] = self._new_block(qc, view)
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
        self.send_charged(self.leader_of(view + 1), ChainedVote(view, None, phi_nv))

    # -- all replicas: proposal processing (Fig 5a lines 21-38) ---------------------------------

    def _handle_proposal(self, sender: int, msg: ChainedProposal) -> None:
        if sender != self.leader_of(msg.view):
            return
        block = msg.block
        qc = self._just_of(block)
        if msg.view != qc.cview + 1:
            return
        b0 = self.blocks.get(qc.view)
        if b0 is None or qc.hash != b0.hash:
            return
        just0 = self._just_of(b0)
        b1 = self.blocks.get(just0.view)
        if b1 is None or just0.hash != b1.hash:
            return
        if sender == self.pid:
            # Own proposal: chain bookkeeping only, the vote already went out.
            phi_leader = None
        else:
            phi_leader = Commitment(
                h_prep=block.hash,
                v_prep=msg.view,
                h_just=None,
                v_just=None,
                phase=Phase.PREPARE,
                sigs=(msg.leader_sig,),
            )
            self.charge_verify(1)
            if not self._verify_tee_commitment(phi_leader, expected_sigs=1):
                return
            if not block.extends(qc.hash):
                return
            self.blocks[msg.view] = block
            self.store.add(block)
        next_leader = self.leader_of(msg.view + 1)
        if sender != self.pid and msg.view not in self._voted:
            self._voted.add(msg.view)
            self.charge_tee(signs=2, verifies=self.quorum)  # TEEprepare + TEEsign
            try:
                phi = self.checker.tee_prepare_chained(block, b0)
            except TEERefusal:
                phi = None
            if phi is not None:
                phi_nv = self.checker.tee_sign()
                self.send_charged(next_leader, ChainedVote(msg.view, phi, phi_nv))
        if self.is_leader(msg.view + 1) and phi_leader is not None:
            # Extract the proposing leader's vote from the proposal.
            self._collect_vote(msg.view, phi_leader)
        # Execute rule (Fig 5a lines 35-37): a 3-chain of direct parents.
        if block.extends(b0.hash) and b0.extends(b1.hash) and not b1.is_genesis:
            self.execute_block(b1, msg.view)
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
                    self._collect_vote(msg.view, phi)
        # A stale leader may be able to propose now that new-views arrived.
        if self.view == msg.view + 1:
            self._try_propose(self.view)

    def _collect_vote(self, view: int, phi: Commitment) -> None:
        quorum = self._votes.add((view, phi.h_prep), phi, phi.sigs[0].signer)
        if quorum is None:
            return
        self.qc_prep = c_combine(quorum)
        if self.view == view + 1:
            self._try_propose(self.view)

    # -- new-view commitment storage (for the stale-certificate path) --------------------------------

    def _store_new_view(self, msg: ChainedVote) -> None:
        phi = msg.nv
        if phi.phase != Phase.NEW_VIEW or phi.h_prep is not None or len(phi.sigs) != 1:
            return
        if phi.v_prep != msg.view:
            return
        self.charge_verify(1)
        if not self._verify_tee_commitment(phi, expected_sigs=1):
            return
        self._new_views.add(phi.v_prep, phi, phi.sigs[0].signer)
