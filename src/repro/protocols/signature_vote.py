"""The signature-vote engine (HotStuff, Damysus-A, Fast-HotStuff).

Table 1's basic protocols differ in *what* a vote is, not in how votes
flow: replicas vote phase by phase through the declared ``PHASES``, the
leader turns each quorum into a certificate and broadcasts it, and the
last phase's certificate decides.  Here a vote is a replica signature;
:class:`~repro.protocols.damysus.DamysusReplica` runs Checker commitments.
"""

from __future__ import annotations

from typing import Any, ClassVar, Sequence

from repro.crypto.scheme import Signature
from repro.errors import VerificationError
from repro.core.certificate import QuorumCert, genesis_qc, vote_payload
from repro.core.messages import NewViewAMsg, QCMsg, VoteMsg
from repro.core.phases import Phase
from repro.protocols.replica import BaseReplica
from repro.tee.accumulator import new_view_a_payload


class SignatureVoteReplica(BaseReplica):
    """Votes are signatures over ``vote_payload``, certificates ``QuorumCert``s.

    Subclasses declare ``PHASES``, table their new-view and proposal
    handlers and call :meth:`_vote` once a proposal is acceptable.
    """

    #: Where the newest certificate of each non-final phase is kept: a
    #: prepare QC prepares the block, a pre-commit QC locks it (HotStuff;
    #: for the two-phase protocols a pre-commit QC already decides).
    QC_SLOT: ClassVar[dict[Phase, str]] = {
        Phase.PREPARE: "prepare_qc",
        Phase.PRECOMMIT: "locked_qc",
    }
    HANDLERS: ClassVar[dict[Any, Any]] = {VoteMsg: "_handle_vote", QCMsg: "_handle_qc"}
    COLLECTORS = ("_new_views", "_votes")
    VIEW_SETS = ("_proposed", "_voted", "_decided")
    DURABLE: ClassVar[dict[str, Any]] = {"prepare_qc": QuorumCert}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Latest prepared block's certificate, relayed in new-views.
        self.prepare_qc = genesis_qc(self.store.genesis.hash)

    def _new_view_action(self) -> None:
        """Report the latest prepared block, signed, to the view's leader."""
        self.charge_sign()
        sig = self.scheme.sign(self.pid, new_view_a_payload(self.view, self.prepare_qc))
        self.viewsync.send_new_view(
            self.leader_of(self.view), NewViewAMsg(self.view, self.prepare_qc, sig)
        )

    # -- certificate representation (HotStuff overrides for compact QCs) ----------

    def _verify_qc(self, qc: QuorumCert) -> bool:
        self.charge_verify(len(qc.sigs))
        # List certificates verify through the scheme's batch path
        # (verify_all -> verify_many): one joint check for the quorum.
        return qc.verify(self.scheme, self.quorum)

    def _make_qc(
        self, view: int, phase: Phase, block_hash: bytes, sigs: Sequence[Signature]
    ) -> QuorumCert:
        return QuorumCert(view, block_hash, phase, tuple(sigs))

    # -- all replicas: voting ------------------------------------------------------

    def _vote(self, view: int, phase: Phase, block_hash: bytes) -> None:
        self._voted.add((view, phase))
        self.charge_sign()
        sig = self.scheme.sign(self.pid, vote_payload(view, phase, block_hash))
        self.send_charged(self.leader_of(view), VoteMsg(view, phase, block_hash, sig))

    # -- leader: vote aggregation -----------------------------------------------------

    def _handle_vote(self, sender: int, msg: VoteMsg) -> None:
        if not self.is_leader(msg.view):
            return
        self.charge_verify(1)
        if not self.scheme.verify_cached(
            vote_payload(msg.view, msg.phase, msg.block_hash), msg.sig
        ):
            return
        key = (msg.view, msg.phase, msg.block_hash)
        sigs = self._votes.add(key, msg.sig, msg.sig.signer)
        if sigs is None:
            return
        try:
            qc = self._make_qc(msg.view, msg.phase, msg.block_hash, sigs)
        except VerificationError:
            return
        self.broadcast_charged(QCMsg(msg.view, msg.phase, qc), include_self=True)

    # -- all replicas: certificate handling ----------------------------------------------

    def _handle_qc(self, sender: int, msg: QCMsg) -> None:
        if sender != self.leader_of(msg.view):
            return
        qc = msg.qc
        if qc.view != msg.view or qc.phase != msg.phase:
            return
        if not self._verify_qc(qc) or qc.phase not in self.PHASES:
            return
        if qc.phase == self.PHASES[-1]:
            self._decide(msg.view, qc)
            return
        slot = self.QC_SLOT[qc.phase]
        if qc.view > getattr(self, slot).view:
            setattr(self, slot, qc)
        next_phase = self.PHASES[self.PHASES.index(qc.phase) + 1]
        if (msg.view, next_phase) not in self._voted:
            self._vote(msg.view, next_phase, qc.block_hash)

    def _decide(self, view: int, qc: QuorumCert) -> None:
        if view in self._decided:
            return
        self._decided.add(view)
        block = self.store.get(qc.block_hash)
        if block is not None:
            self.execute_block(block, view)
        self.pacemaker.view_succeeded()
        self.advance_view(view + 1)  # on_view_entered sends the new-view
