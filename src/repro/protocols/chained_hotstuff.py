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
from repro.protocols.pipeline import PipelinedReplica


class ChainedHotStuffReplica(PipelinedReplica):
    """One replica of chained HotStuff."""

    protocol_name = "chained-hotstuff"
    HANDLERS: ClassVar[dict[Any, Any]] = {
        ChainedProposal: "_handle_proposal",
        VoteMsg: "_handle_vote",
        NewViewMsg: "_handle_new_view",
    }
    NEXT_VIEW_MSGS = (VoteMsg,)
    DEPTH = 3  # lock on the 2-chain, execute below the 3-chain
    DURABLE: ClassVar[dict[str, Any]] = {"high_qc": QuorumCert, "locked_qc": QuorumCert}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Both certificates are durable: stable storage keeps them.
        bottom = genesis_qc(self.store.genesis.hash)
        self.high_qc = bottom  # highest known certificate (generic QC)
        self.locked_qc = bottom  # 2-chain lock

    def on_view_timeout(self, view: int) -> None:
        # Votes double as new-views on the happy path; only a timeout
        # sends an explicit one, after the shared advance.
        super().on_view_timeout(view)
        self.viewsync.send_new_view(
            self.leader_of(self.view), NewViewMsg(self.view, self.high_qc)
        )

    # -- leader ---------------------------------------------------------------------------

    def _certified_previous(self, view: int) -> bool:
        # After a timeout the leader instead extends the highest of 2f+1
        # reported certificates (:meth:`_handle_new_view`).
        return self.high_qc.view == view - 1 or view == 1

    def _propose(self, view: int, trigger: Any = None) -> None:
        self._proposed.add(view)
        block = self._new_block(self.high_qc, view)
        self.charge_sign()
        leader_sig = self.scheme.sign(self.pid, vote_payload(view, Phase.PREPARE, block.hash))
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
        if not isinstance(justify, QuorumCert):
            return
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
        links = self._links(block)
        lock = links[1][1] if len(links) >= 2 else None  # the 2-chain's certificate
        if isinstance(lock, QuorumCert) and lock.view > self.locked_qc.view:
            self.locked_qc = lock
        self._execute_chain(links, block.view)
        if msg.view not in self._voted and self._safe_node(block, justify):
            self._voted.add(msg.view)
            self.charge_sign()
            sig = self.scheme.sign(self.pid, vote_payload(msg.view, Phase.PREPARE, block.hash))
            self.viewsync.send_new_view(
                self.leader_of(msg.view + 1),
                VoteMsg(msg.view, Phase.PREPARE, block.hash, sig),
            )
        self.pacemaker.view_succeeded()
        self.advance_view(msg.view + 1)

    def _safe_node(self, block: Block, justify: QuorumCert) -> bool:
        extends_locked = self.store.is_ancestor(self.locked_qc.block_hash, block.hash)
        return extends_locked or justify.view > self.locked_qc.view

    # -- next leader: vote aggregation ------------------------------------------------------------

    def _handle_vote(self, sender: int, msg: VoteMsg) -> None:
        if not self.is_leader(msg.view + 1):
            return
        self.charge_verify(1)
        if self.scheme.verify_cached(vote_payload(msg.view, msg.phase, msg.block_hash), msg.sig):
            self._collect_vote(msg.view, msg.block_hash, msg.sig, msg.sig.signer)

    def _certify(self, view: int, block_hash: Any, votes: list[Any]) -> None:
        qc = QuorumCert(view, block_hash, Phase.PREPARE, tuple(votes))
        if qc.view > self.high_qc.view:
            self.high_qc = qc
