"""Basic HotStuff (paper Section 3): 3f+1 replicas, 3 core phases.

The baseline the paper compares against.  Eight communication steps per
view: new-view, proposal, prepare votes, prepare-QC broadcast, pre-commit
votes, pre-commit-QC broadcast, commit votes, decide broadcast - which is
Table 1's ``24f + 8`` messages (self-messages included).

Safety comes from the locking scheme: replicas lock on a pre-commit QC
and the SafeNode predicate only accepts proposals that extend the locked
block or are justified at a higher view than the lock.
"""

from __future__ import annotations

from typing import Any, ClassVar, Sequence

from repro.crypto.scheme import Signature
from repro.crypto.threshold import ThresholdScheme, is_group_signature
from repro.core.block import Block
from repro.core.certificate import QuorumCert, vote_payload
from repro.core.messages import NewViewMsg, ProposalMsg
from repro.core.phases import Phase
from repro.protocols.signature_vote import SignatureVoteReplica


class HotStuffReplica(SignatureVoteReplica):
    """One replica of basic HotStuff."""

    protocol_name = "hotstuff"
    PHASES = (Phase.PREPARE, Phase.PRECOMMIT, Phase.COMMIT)
    HANDLERS: ClassVar[dict[Any, Any]] = {
        **SignatureVoteReplica.HANDLERS,
        NewViewMsg: "_handle_new_view",
        ProposalMsg: "_handle_proposal",
    }
    STALE_BLOCK_MSGS = (ProposalMsg,)
    DURABLE: ClassVar[dict[str, Any]] = {"locked_qc": QuorumCert}
    WIRING = ("threshold",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # The lock (pre-commit QC); like prepare_qc it is durable, because
        # HotStuff's crash-recovery model keeps safety-critical
        # certificates on stable storage.
        self.locked_qc = self.prepare_qc
        # Optional original-HotStuff-style compact certificates: leaders
        # combine vote shares into one constant-size threshold signature.
        self.threshold: ThresholdScheme | None = None
        if self.config.compact_qcs:
            self.threshold = ThresholdScheme(
                self.scheme,
                group_name="hotstuff-replicas",
                members=list(self.replica_pids),
                threshold=self.quorum,
            )

    # -- lifecycle --------------------------------------------------------------

    def _new_view_action(self) -> None:
        """Report the latest prepared block (unsigned: its QC speaks for itself)."""
        self.viewsync.send_new_view(
            self.leader_of(self.view), NewViewMsg(self.view, self.prepare_qc)
        )

    # -- certificate representation ---------------------------------------------------

    def _verify_qc(self, qc: QuorumCert) -> bool:
        """Verify a quorum certificate in either representation.

        Compact (threshold) certificates verify in constant time -
        modelled as two signature-verification units, BLS-pairing style -
        while list certificates cost one verification per signer.
        """
        if qc.is_genesis:
            return True
        if len(qc.sigs) == 1 and is_group_signature(qc.sigs[0]):
            if self.threshold is None:
                return False
            self.charge_verify(2)
            return self.threshold.verify_group(qc.signed_payload(), qc.sigs[0])
        return super()._verify_qc(qc)

    def _make_qc(
        self, view: int, phase: Phase, block_hash: bytes, sigs: Sequence[Signature]
    ) -> QuorumCert:
        if self.threshold is None:
            return super()._make_qc(view, phase, block_hash, sigs)
        payload = vote_payload(view, phase, block_hash)
        # Shares were verified on arrival; the TEE-free combine
        # re-checks them, which we charge as quorum verifications.
        self.charge_verify(len(sigs))
        group = self.threshold.combine(payload, list(sigs))
        return QuorumCert(view, block_hash, phase, (group,))

    # -- leader: new-view and proposal ----------------------------------------------

    def _handle_new_view(self, sender: int, msg: NewViewMsg) -> None:
        if not self.is_leader(msg.view):
            return
        quorum = self._new_views.add(msg.view, msg, sender)
        if quorum is not None and msg.view not in self._proposed:
            self._propose(msg.view, quorum)

    def _propose(self, view: int, new_views: list[NewViewMsg]) -> None:
        """Extend the highest prepared block among 2f+1 reports (Section 3)."""
        high_qc = max((m.justify for m in new_views), key=lambda qc: qc.view)
        if not self._verify_qc(high_qc):
            return
        self._proposed.add(view)
        block = self._new_block(high_qc.block_hash, view)
        self.broadcast_charged(ProposalMsg(view, block, high_qc), include_self=True)

    # -- backup: SafeNode and voting ---------------------------------------------------

    def _safe_node(self, block: Block, justify: QuorumCert) -> bool:
        """Paper Section 3: extends the lock, or justified above the lock."""
        extends_locked = self.store.is_ancestor(self.locked_qc.block_hash, block.hash)
        return extends_locked or justify.view > self.locked_qc.view

    def _handle_proposal(self, sender: int, msg: ProposalMsg) -> None:
        if sender != self.leader_of(msg.view):
            return
        if (msg.view, Phase.PREPARE) in self._voted:
            return
        if not self._verify_qc(msg.justify):
            return
        if not msg.block.extends(msg.justify.block_hash):
            return
        self.store.add(msg.block)
        if not self._safe_node(msg.block, msg.justify):
            return
        self._vote(msg.view, Phase.PREPARE, msg.block.hash)
