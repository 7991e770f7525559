"""The Accumulator trusted service (paper Fig 2b, Section 4.2.2).

The accumulator certifies that some block has the highest view among a set
of reported latest-prepared blocks, which is what lets Damysus drop
HotStuff's locking phase: a leader physically cannot produce a valid
proposal that extends anything but the highest prepared block it received.

Two variants are provided:

* :class:`AccumulatorService` accumulates Checker *commitments* (Damysus
  and Chained-Damysus, where new-view messages are TEE-signed and
  constant-size);
* :class:`QCAccumulatorService` accumulates replica-signed reports that
  carry full prepare *quorum certificates* (Damysus-A, which has no
  Checker, so claims must be backed by 2f+1-signature QCs that the
  accumulator verifies itself).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.crypto.hashing import encode_fields
from repro.crypto.keys import KeyDirectory
from repro.crypto.scheme import Signature, SignatureScheme
from repro.errors import TEERefusal
from repro.core.certificate import Accumulator, QuorumCert
from repro.core.commitment import Commitment
from repro.core.messages import NewViewAMsg
from repro.core.phases import Phase
from repro.tee.base import TrustedComponent


class _Accumulating(TrustedComponent):
    """What both accumulators share: a quorum, and signing what they certify."""

    def __init__(
        self, replica: int, scheme: SignatureScheme, directory: KeyDirectory, quorum: int
    ) -> None:
        super().__init__(replica, scheme, directory)
        # How many items to accumulate: new-view commitments (f+1 of
        # 2f+1), or Damysus-A reports, whose prepare QCs carry as many
        # signatures (2f+1 of 3f+1).
        self.quorum = quorum

    def _signed(self, **fields: Any) -> Accumulator:
        """An accumulator of ``fields``, signed over its current form."""
        unsigned = Accumulator(signature=Signature(self._signer, b"", self._scheme.name), **fields)
        return replace(unsigned, signature=self._sign(unsigned.signed_payload()))


class AccumulatorService(_Accumulating):
    """Accumulates new-view commitments (Fig 2b, TEEstart/TEEaccum/TEEfinalize)."""

    # -- helpers ---------------------------------------------------------------

    def _check_new_view_commitment(self, phi: Commitment) -> None:
        if len(phi.sigs) != 1:
            raise TEERefusal("accumulator: expected a 1-commitment")
        if phi.phase != Phase.NEW_VIEW or phi.h_prep is not None:
            raise TEERefusal("accumulator: not a new-view commitment")
        if phi.h_just is None or phi.v_just is None:
            raise TEERefusal("accumulator: commitment lacks a prepared block")
        if self._directory.kind_of(phi.sigs[0].signer) != "tee":
            raise TEERefusal("accumulator: commitment not signed by a TEE")
        if not phi.verify(self._scheme):
            raise TEERefusal("accumulator: bad commitment signature")

    # -- TEE interface -----------------------------------------------------------

    def tee_start(self, phi: Commitment) -> Accumulator:
        """``TEEstart``: initial accumulator from one new-view commitment."""
        self._count_call()
        self._check_new_view_commitment(phi)
        return self._signed(
            made_in_view=phi.v_prep,
            prep_view=phi.v_just,
            prep_hash=phi.h_just,
            ids=(phi.sigs[0].signer,),
        )

    def tee_accum(self, acc: Accumulator, phi: Commitment) -> Accumulator:
        """``TEEaccum``: extend ``acc`` with one more commitment.

        Accepts only commitments for the same view, for prepared blocks no
        higher than the accumulated one, from nodes not yet counted.
        """
        self._count_call()
        if acc.finalized:
            raise TEERefusal("accumulator: already finalized")
        if not self._verify_working(acc):
            raise TEERefusal("accumulator: invalid accumulator")
        self._check_new_view_commitment(phi)
        if acc.made_in_view != phi.v_prep:
            raise TEERefusal("accumulator: commitment for a different view")
        if phi.v_just is None or acc.prep_view < phi.v_just:
            raise TEERefusal(
                "accumulator: commitment reports a higher prepared block than "
                "the accumulated one"
            )
        signer = phi.sigs[0].signer
        if signer in (acc.ids or ()):
            raise TEERefusal("accumulator: node already counted")
        return self._signed(
            made_in_view=acc.made_in_view,
            prep_view=acc.prep_view,
            prep_hash=acc.prep_hash,
            ids=(*(acc.ids or ()), signer),
        )

    def tee_finalize(self, acc: Accumulator) -> Accumulator:
        """``TEEfinalize``: replace the id list by its cardinality."""
        self._count_call()
        if acc.finalized:
            raise TEERefusal("accumulator: already finalized")
        if not self._verify_working(acc):
            raise TEERefusal("accumulator: invalid accumulator")
        return self._signed(
            made_in_view=acc.made_in_view,
            prep_view=acc.prep_view,
            prep_hash=acc.prep_hash,
            count=len(acc.ids or ()),
        )

    def _verify_working(self, acc: Accumulator) -> bool:
        if self._directory.kind_of(acc.signature.signer) != "tee":
            return False
        return acc.verify(self._scheme)

    # -- convenience: the leader-side accumList loop (Fig 2a, line 49) -----------

    def accumulate(self, commitments: list[Commitment]) -> Accumulator:
        """Paper's ``accumList``: start from the highest, accumulate the rest.

        The caller (leader) selects the commitment with the highest
        justification view; the TEE enforces that the choice was maximal
        because ``tee_accum`` refuses any commitment above the start one.
        """
        if len(commitments) != self.quorum:
            raise TEERefusal(
                f"accumList: need exactly {self.quorum} commitments, "
                f"got {len(commitments)}"
            )
        highest = max(commitments, key=lambda phi: (phi.v_just or 0))
        acc = self.tee_start(highest)
        for phi in commitments:
            if phi is highest:
                continue
            acc = self.tee_accum(acc, phi)
        return self.tee_finalize(acc)


def new_view_a_payload(view: int, qc: QuorumCert) -> bytes:
    """Bytes a Damysus-A replica signs over its new-view report."""
    return encode_fields(("newview-a", view, qc.view, qc.block_hash))


class QCAccumulatorService(_Accumulating):
    """Damysus-A accumulator: items are replica-signed prepare-QC reports."""

    def _check_report_shape(self, msg: NewViewAMsg) -> None:
        if self._directory.kind_of(msg.sender_sig.signer) != "replica":
            raise TEERefusal("qc-accumulator: report not signed by a replica")
        if msg.justify.phase != Phase.PREPARE:
            raise TEERefusal("qc-accumulator: justification is not a prepare QC")

    def accumulate(self, reports: list[NewViewAMsg]) -> Accumulator:
        """Verify ``quorum`` distinct reports; certify the highest QC.

        Report signatures are checked jointly through the scheme's batch
        path (structural checks first, then one
        :meth:`~repro.crypto.scheme.SignatureScheme.verify_many_cached`
        over all reports; a batch miss falls back per signature inside
        the scheme, so the refusal still names a specific report).

        Only the *selected* (highest) report's embedded quorum certificate
        is verified in full: lower claims never influence the outcome, so
        verifying them would be wasted work, and an overstated claim with
        an invalid certificate is caught here before certification.
        """
        self._count_call()
        if len(reports) != self.quorum:
            raise TEERefusal(
                f"qc-accumulator: need exactly {self.quorum} reports, "
                f"got {len(reports)}"
            )
        views = {msg.view for msg in reports}
        if len(views) != 1:
            raise TEERefusal("qc-accumulator: reports span multiple views")
        senders: set[int] = set()
        for msg in reports:
            self._check_report_shape(msg)
            sender = msg.sender_sig.signer
            if sender in senders:
                raise TEERefusal("qc-accumulator: duplicate reporter")
            senders.add(sender)
        outcomes = self._scheme.verify_many_cached(
            [
                (new_view_a_payload(msg.view, msg.justify), msg.sender_sig)
                for msg in reports
            ]
        )
        for msg, outcome in zip(reports, outcomes):
            if not outcome:
                raise TEERefusal(
                    "qc-accumulator: bad report signature "
                    f"from {msg.sender_sig.signer}"
                )
        best = max(reports, key=lambda msg: msg.justify.view)
        if not best.justify.verify(self._scheme, self.quorum):
            raise TEERefusal("qc-accumulator: invalid prepare QC in selected report")
        return self._signed(
            made_in_view=best.view,
            prep_view=best.justify.view,
            prep_hash=best.justify.block_hash,
            count=len(reports),
        )
