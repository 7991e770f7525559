"""Fast-HotStuff (Jalalzai, Niu, Feng 2020) - the TEE-free 2-phase baseline.

Section 2 of the DAMYSUS paper situates Fast-HotStuff as the alternative
way to drop HotStuff's third phase *without* trusted components: after an
unhappy view change, "leaders send proofs that the blocks they extend are
the highest received blocks.  This requires larger messages (containing
an aggregated vector of 2f+1 quorum certificates) but improves latency".

This implementation follows that description:

* 3f+1 replicas, 2f+1 quorums, no trusted components;
* happy path: the leader holds the prepare QC of view v-1 and proposes
  directly - two core phases (prepare, pre-commit) plus decide;
* unhappy path: the proposal carries an *aggregate proof* - the 2f+1
  signed new-view reports the leader collected - and backups check that
  the extended certificate is the highest among them.

Including it lets the benchmarks quantify the trade-off the paper
alludes to: Damysus gets 2 phases at 2f+1 with constant-size messages,
Fast-HotStuff gets 2 phases at 3f+1 by shipping O(n) certificates after
faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar
from repro.core.block import Block
from repro.core.certificate import QuorumCert
from repro.core.messages import MSG_HEADER_BYTES, NewViewAMsg
from repro.core.phases import Phase
from repro.protocols.signature_vote import SignatureVoteReplica
from repro.tee.accumulator import new_view_a_payload


@dataclass(frozen=True)
class FastProposal:
    """Fast-HotStuff proposal: block + high QC + optional aggregate proof.

    ``proof`` is present exactly when ``justify`` is not from view-1: the
    2f+1 signed new-view reports demonstrating that ``justify`` was the
    highest certificate the leader received.
    """

    view: int
    block: Block
    justify: QuorumCert
    proof: tuple[NewViewAMsg, ...] | None = None

    msg_type = "fast-proposal"

    def wire_size(self) -> int:
        size = MSG_HEADER_BYTES + 4 + self.block.wire_size() + self.justify.wire_size()
        if self.proof is not None:
            size += sum(report.wire_size() for report in self.proof)
        return size


class FastHotStuffReplica(SignatureVoteReplica):
    """One Fast-HotStuff replica."""

    protocol_name = "fast-hotstuff"
    PHASES = (Phase.PREPARE, Phase.PRECOMMIT)
    HANDLERS: ClassVar[dict[Any, Any]] = {
        **SignatureVoteReplica.HANDLERS,
        NewViewAMsg: "_handle_new_view",
        FastProposal: "_handle_proposal",
    }
    STALE_BLOCK_MSGS = (FastProposal,)

    # -- lifecycle ---------------------------------------------------------------

    def on_view_entered(self, view: int) -> None:
        # Unlike start() and recovery, a view entered by deciding the
        # previous one finds its leader already holding that view's
        # prepare QC: propose at once instead of waiting for reports.
        super().on_view_entered(view)
        if self.is_leader(view) and self.prepare_qc.view == view - 1:
            self._propose(view)

    # -- leader --------------------------------------------------------------------------

    def _propose(self, view: int, proof: tuple[NewViewAMsg, ...] | None = None) -> None:
        """Extend ``prepare_qc``; off the happy path, ship the aggregate proof."""
        if view in self._proposed:
            return
        self._proposed.add(view)
        block = self._new_block(self.prepare_qc.block_hash, view)
        self.broadcast_charged(FastProposal(view, block, self.prepare_qc, proof), include_self=True)

    def _handle_new_view(self, sender: int, msg: NewViewAMsg) -> None:
        if not self.is_leader(msg.view):
            return
        self.charge_verify(1)
        if not self.scheme.verify_cached(
            new_view_a_payload(msg.view, msg.justify), msg.sender_sig
        ):
            return
        reports = self._new_views.add(msg.view, msg, msg.sender_sig.signer)
        if reports is None or msg.view in self._proposed:
            return
        best = max(reports, key=lambda report: report.justify.view)
        self.charge_verify(len(best.justify.sigs))
        if not best.justify.verify(self.scheme, self.quorum):
            return
        if best.justify.view > self.prepare_qc.view:
            self.prepare_qc = best.justify
        happy = self.prepare_qc.view == msg.view - 1
        self._propose(msg.view, None if happy else tuple(reports))

    # -- backups -----------------------------------------------------------------------------

    def _proof_valid(self, msg: FastProposal) -> bool:
        """Check the aggregate proof of an unhappy-path proposal.

        Structural checks run first (they are free and reject most bad
        proofs); the 2f+1 report signatures are then checked jointly via
        the scheme's batch path - each report signs a different payload,
        which is exactly the cross-message shape ``verify_many`` handles.
        """
        proof = msg.proof or ()
        if len(proof) != self.quorum:
            return False
        signers: set[int] = set()
        self.charge_verify(len(proof))
        justify_seen = False
        for report in proof:
            if report.view != msg.view:
                return False
            if report.sender_sig.signer in signers:
                return False
            signers.add(report.sender_sig.signer)
            if report.justify.view > msg.justify.view:
                return False  # the leader did not extend the highest
            if (
                report.justify.view == msg.justify.view
                and report.justify.block_hash == msg.justify.block_hash
            ):
                justify_seen = True
        if not justify_seen:
            return False
        return all(
            self.scheme.verify_many_cached(
                [
                    (new_view_a_payload(report.view, report.justify), report.sender_sig)
                    for report in proof
                ]
            )
        )

    def _handle_proposal(self, sender: int, msg: FastProposal) -> None:
        if sender != self.leader_of(msg.view):
            return
        if (msg.view, Phase.PREPARE) in self._voted:
            return
        self.charge_verify(len(msg.justify.sigs))
        if not msg.justify.verify(self.scheme, self.quorum):
            return
        if not msg.block.extends(msg.justify.block_hash):
            return
        if msg.justify.view != msg.view - 1 and not self._proof_valid(msg):
            return
        self.store.add(msg.block)
        self._vote(msg.view, Phase.PREPARE, msg.block.hash)
