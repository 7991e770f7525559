"""Damysus-A (paper Section 4.2.3 / Section 8): Accumulator only.

3f+1 replicas with 2f+1 quorums, but only 2 core phases: the leader's
accumulator certifies that the proposal extends the highest prepared
block among 2f+1 signed reports, which removes the need for locking.
Without a Checker, new-view reports must carry full prepare quorum
certificates (a node could otherwise overstate its latest prepared
block); quorum intersection guarantees at least one correct node's honest
report reaches every accumulator.

Six communication steps per view: new-view reports, proposal, prepare
votes, prepare-QC broadcast, pre-commit votes, decide broadcast.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.errors import TEERefusal
from repro.crypto.hashing import encode_fields
from repro.core.messages import NewViewAMsg, ProposalAMsg
from repro.core.phases import Phase
from repro.protocols.signature_vote import SignatureVoteReplica
from repro.tee.accumulator import QCAccumulatorService


def proposal_a_payload(view: int, block_hash: bytes) -> bytes:
    """Bytes the leader signs over its Damysus-A proposal."""
    return encode_fields(("proposal-a", view, block_hash))


class DamysusAReplica(SignatureVoteReplica):
    """One Damysus-A replica: accumulator TEE, plain replica signatures."""

    protocol_name = "damysus-a"
    PHASES = (Phase.PREPARE, Phase.PRECOMMIT)
    HANDLERS: ClassVar[dict[Any, Any]] = {
        **SignatureVoteReplica.HANDLERS,
        NewViewAMsg: "_handle_new_view",
        ProposalAMsg: "_handle_proposal",
    }
    STALE_BLOCK_MSGS = (ProposalAMsg,)
    # No checker to seal; the accumulator is stateless between calls.
    ACCUMULATOR = QCAccumulatorService
    acc_service: QCAccumulatorService

    # -- prepare phase: leader --------------------------------------------------------------

    def _handle_new_view(self, sender: int, msg: NewViewAMsg) -> None:
        if not self.is_leader(msg.view):
            return
        quorum = self._new_views.add(msg.view, msg, msg.sender_sig.signer)
        if quorum is not None and msg.view not in self._proposed:
            self._propose(msg.view, quorum)

    def _propose(self, view: int, reports: list[NewViewAMsg]) -> None:
        # The accumulator verifies each report's sender signature plus the
        # selected (highest) report's full prepare QC inside the TEE.
        best_qc_sigs = max(len(m.justify.sigs) for m in reports)
        self.charge(
            self.costs.tee_op_ms(signs=1, verifies=0)
            + self.costs.verify_many_ms(len(reports) + best_qc_sigs)
        )
        try:
            acc = self.acc_service.accumulate(reports)
        except TEERefusal:
            return
        self._proposed.add(view)
        block = self._new_block(acc.prep_hash, view)
        self.charge_sign()
        leader_sig = self.scheme.sign(self.pid, proposal_a_payload(view, block.hash))
        self.broadcast_charged(
            ProposalAMsg(view, block, acc, leader_sig), include_self=True
        )

    # -- prepare phase: all replicas (the leader votes on its own copy) -------------------------

    def _handle_proposal(self, sender: int, msg: ProposalAMsg) -> None:
        if sender != self.leader_of(msg.view):
            return
        if (msg.view, Phase.PREPARE) in self._voted:
            return
        acc = msg.acc
        if not acc.finalized or len(acc) != self.quorum or acc.made_in_view != msg.view:
            return
        self.charge_verify(2)  # accumulator signature + leader signature
        if self.directory.kind_of(acc.signature.signer) != "tee":
            return
        # Both checks ride one batch call: different payloads, one joint
        # verification (the cross-message verify_many shape).
        if not all(
            self.scheme.verify_many_cached(
                [
                    (acc.signed_payload(), acc.signature),
                    (proposal_a_payload(msg.view, msg.block.hash), msg.leader_sig),
                ]
            )
        ):
            return
        if not msg.block.extends(acc.prep_hash):
            return
        self.store.add(msg.block)
        self._vote(msg.view, Phase.PREPARE, msg.block.hash)
