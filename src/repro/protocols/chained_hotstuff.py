"""Chained (pipelined) HotStuff (paper Sections 3 and 7): the baseline
for Chained-Damysus.

One block is proposed per view and a single generic vote phase is
pipelined: the proposal of view v simultaneously serves as the prepare of
block b_v, the pre-commit of b_{v-1}, the commit of b_{v-2} and the
decide of b_{v-3}.  A block executes as the oldest of a chain of 4
consecutive blocks (Section 7.1), i.e. three direct-parent certified
links below a newly justified block.

Per view: one proposal broadcast (N messages) and one vote per replica to
the *next* leader (N messages); a block therefore costs 8 steps spread
over 4 views - Table 1's 24f + 8 messages.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.core.block import Block
from repro.core.certificate import QuorumCert, genesis_qc, vote_payload
from repro.core.messages import ChainedProposal, NewViewMsg, VoteMsg
from repro.core.phases import Phase
from repro.protocols.replica import BaseReplica


class ChainedHotStuffReplica(BaseReplica):
    """One replica of chained HotStuff."""

    protocol_name = "chained-hotstuff"
    HANDLERS: ClassVar[dict[Any, Any]] = {
        ChainedProposal: "_handle_proposal",
        VoteMsg: "_handle_vote",
        NewViewMsg: "_handle_new_view",
    }
    STALE_BLOCK_MSGS = (ChainedProposal,)
    NEXT_VIEW_MSGS = (VoteMsg,)
    COLLECTORS = ("_votes", "_new_views")
    VIEW_SETS = ("_proposed", "_voted")
    # Votes stamped view-1 are still being collected by this view's
    # leader, so prune two views back.
    PRUNE_SLACK = 2
    DURABLE: ClassVar[dict[str, Any]] = {"high_qc": QuorumCert, "locked_qc": QuorumCert}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Both certificates are durable: stable storage keeps them.
        bottom = genesis_qc(self.store.genesis.hash)
        self.high_qc = bottom  # highest known certificate (generic QC)
        self.locked_qc = bottom  # 2-chain lock

    # -- helpers ------------------------------------------------------------------

    def _just_of(self, block: Block) -> QuorumCert:
        """A block's justification; genesis justifies itself at view 0."""
        if block.justify is not None:
            return block.justify  # type: ignore[return-value]
        return genesis_qc(self.store.genesis.hash)

    # -- lifecycle -------------------------------------------------------------------

    def _new_view_action(self) -> None:
        """A leader holding the previous view's certificate proposes at once."""
        self._try_propose(self.view)

    def on_view_timeout(self, view: int) -> None:
        # Votes double as new-views on the happy path; only a timeout
        # sends an explicit one, after the shared advance.
        super().on_view_timeout(view)
        self.viewsync.send_new_view(
            self.leader_of(self.view), NewViewMsg(self.view, self.high_qc)
        )

    def on_recovered(self) -> None:
        # No rejoin action: a restarted leader has forgotten what it
        # proposed, so re-running the new-view action could equivocate.
        # It rejoins on the next proposal or timeout.
        pass

    # -- leader ---------------------------------------------------------------------------

    def _try_propose(self, view: int) -> None:
        """Propose when holding a certificate from the previous view.

        After a timeout the leader instead waits for 2f+1 new-view
        messages and extends the highest reported certificate (handled by
        :meth:`_handle_new_view`).
        """
        if view in self._proposed or not self.is_leader(view):
            return
        if self.high_qc.view == view - 1 or view == 1:
            self._propose(view)

    def _propose(self, view: int) -> None:
        self._proposed.add(view)
        block = self._new_block(self.high_qc, view)
        self.charge_sign()
        leader_sig = self.scheme.sign(
            self.pid, vote_payload(view, Phase.PREPARE, block.hash)
        )
        self.broadcast_charged(ChainedProposal(view, block, leader_sig), include_self=True)

    def _handle_new_view(self, sender: int, msg: NewViewMsg) -> None:
        if not self.is_leader(msg.view):
            return
        self.charge_verify(len(msg.justify.sigs))
        if not msg.justify.verify(self.scheme, self.quorum):
            return
        quorum = self._new_views.add(msg.view, msg, sender)
        if quorum is not None and msg.view not in self._proposed:
            best = max((m.justify for m in quorum), key=lambda qc: qc.view)
            if best.view > self.high_qc.view:
                self.high_qc = best
            self._propose(msg.view)

    # -- all replicas: proposal processing -----------------------------------------------------

    def _handle_proposal(self, sender: int, msg: ChainedProposal) -> None:
        if sender != self.leader_of(msg.view):
            return
        block = msg.block
        justify = self._just_of(block)
        self.charge_verify(len(justify.sigs) + 1)
        # QC verification routes through the scheme's batch path
        # (verify_all -> verify_many): one joint check for 2f+1 sigs.
        if not justify.verify(self.scheme, self.quorum):
            return
        if not self.scheme.verify_cached(
            vote_payload(msg.view, Phase.PREPARE, block.hash), msg.leader_sig
        ):
            return
        if not block.extends(justify.hash):
            return
        self.store.add(block)
        if justify.view > self.high_qc.view:
            self.high_qc = justify
        self._update_chain_state(block, justify)
        if msg.view not in self._voted and self._safe_node(block, justify):
            self._voted.add(msg.view)
            self.charge_sign()
            sig = self.scheme.sign(
                self.pid, vote_payload(msg.view, Phase.PREPARE, block.hash)
            )
            self.viewsync.send_new_view(
                self.leader_of(msg.view + 1),
                VoteMsg(msg.view, Phase.PREPARE, block.hash, sig),
            )
        self.pacemaker.view_succeeded()
        self.advance_view(msg.view + 1)

    def _safe_node(self, block: Block, justify: QuorumCert) -> bool:
        extends_locked = self.store.is_ancestor(self.locked_qc.block_hash, block.hash)
        return extends_locked or justify.view > self.locked_qc.view

    def _update_chain_state(self, block: Block, justify: QuorumCert) -> None:
        """Walk the certified chain: lock on a 2-chain, execute on a 3-chain.

        With b the new proposal: b2 is the block b.just certifies, b1 the
        block b2.just certifies, b0 the block b1.just certifies.  Direct
        parent links all the way down mean consecutive views (one
        certificate per view), so b0 heads a chain of 4 consecutive blocks
        and executes.
        """
        b2 = self.store.get(justify.hash)
        if b2 is None or not block.extends(b2.hash):
            return
        just2 = self._just_of(b2)
        b1 = self.store.get(just2.hash)
        if b1 is None or not b2.extends(b1.hash):
            return
        if just2.view > self.locked_qc.view:
            self.locked_qc = just2  # lock on the 2-chain
        just1 = self._just_of(b1)
        b0 = self.store.get(just1.hash)
        if b0 is None or not b1.extends(b0.hash):
            return
        if not b0.is_genesis:
            self.execute_block(b0, block.view)

    # -- next leader: vote aggregation ------------------------------------------------------------

    def _handle_vote(self, sender: int, msg: VoteMsg) -> None:
        if not self.is_leader(msg.view + 1):
            return
        self.charge_verify(1)
        if not self.scheme.verify_cached(
            vote_payload(msg.view, msg.phase, msg.block_hash), msg.sig
        ):
            return
        sigs = self._votes.add((msg.view, msg.block_hash), msg.sig, msg.sig.signer)
        if sigs is None:
            return
        qc = QuorumCert(msg.view, msg.block_hash, Phase.PREPARE, tuple(sigs))
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        self._try_propose(msg.view + 1)
