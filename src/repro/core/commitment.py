"""Commitments and the C-combine / C-match operators (paper Section 6.2).

A commitment ``<h, v, h', v', ph, sigs>`` is generated by Checker trusted
components.  ``(h, v)`` is the *proposed* (hashed) block/view and
``(h', v')`` the *justification* block/view; ``ph`` tags the phase the
commitment was generated in; bottom fields are represented by ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crypto.hashing import HASH_SIZE, Hash, encode_fields
from repro.crypto.scheme import SIGNATURE_WIRE_SIZE, Signature, SignatureScheme
from repro.errors import ProtocolError
from repro.memo import remember
from repro.core.phases import Phase


@dataclass(frozen=True, slots=True)
class Commitment:
    """A (possibly multi-signature) Checker commitment."""

    h_prep: Hash | None  # proposed block hash, bottom for new-view
    v_prep: int  # proposed view (the TEE's view at signing)
    h_just: Hash | None  # justification block hash
    v_just: int | None  # justification view
    phase: Phase
    sigs: tuple[Signature, ...]

    # -- chained accessors (Section 7.1) --------------------------------------

    @property
    def view(self) -> int:
        """Chained notation ``phi.view``: the view the commitment was signed in."""
        return self.v_prep

    # -- certificate vocabulary (combined prepare commitments justify
    # chained blocks, Section 7.1: qc.cview = qc.view = view) ---------------

    @property
    def cview(self) -> int:
        """View in which this certificate was created."""
        return self.v_prep

    @property
    def hash(self) -> Hash | None:
        """The certified block's hash when used as a chained certificate."""
        return self.h_prep

    def digest(self) -> Hash:
        """Digest for embedding the commitment in a block hash."""
        from repro.crypto.hashing import hash_fields

        return hash_fields(
            (
                "commitment-digest",
                self.h_prep,
                self.v_prep,
                self.h_just,
                self.v_just,
                self.phase.value,
                tuple(sig.data for sig in self.sigs),
            )
        )

    # -- signing -------------------------------------------------------------

    def signed_payload(self) -> bytes:
        """Canonical bytes every contributing signature covers."""
        return commitment_payload(self.h_prep, self.v_prep, self.h_just, self.v_just, self.phase)

    def verify(self, scheme: SignatureScheme) -> bool:
        """Verify all signatures (distinct signers) over the payload."""
        if not self.sigs:
            return False
        return scheme.verify_all(self.signed_payload(), self.sigs)

    def wire_size(self) -> int:
        return 2 * HASH_SIZE + 2 * 4 + 1 + SIGNATURE_WIRE_SIZE * len(self.sigs)


#: Memoized commitment payloads, keyed by the fields they encode (as
#: :func:`~repro.core.certificate.vote_payload` is): every Checker signing
#: a commitment and every replica verifying one re-encodes the same bytes.
#: The key is the fields themselves, never anything a commitment object
#: carries, so the bytes a verifier checks are always the encoding of the
#: fields in front of it.
_COMMITMENT_PAYLOAD_CACHE: dict[
    tuple[Hash | None, int, Hash | None, int | None, str], bytes
] = {}
_COMMITMENT_PAYLOAD_CACHE_MAX = 65536


def commitment_payload(
    h_prep: Hash | None,
    v_prep: int,
    h_just: Hash | None,
    v_just: int | None,
    phase: Phase,
) -> bytes:
    """Bytes a Checker signs for a commitment with these fields."""
    key = (h_prep, v_prep, h_just, v_just, phase.value)
    payload = _COMMITMENT_PAYLOAD_CACHE.get(key)
    if payload is None:
        payload = remember(
            _COMMITMENT_PAYLOAD_CACHE,
            key,
            encode_fields(("commitment", *key)),
            _COMMITMENT_PAYLOAD_CACHE_MAX,
        )
    return payload


def c_combine(commitments: list[Commitment]) -> Commitment:
    """Paper's ``C-combine``: merge matching 1-commitments into one.

    All inputs must agree on every data field and be signed by distinct
    signers; the result carries the concatenated signature list (a quorum
    certificate built out of partial votes).
    """
    if not commitments:
        raise ProtocolError("cannot combine an empty commitment list")
    first = commitments[0]
    key = (first.h_prep, first.v_prep, first.h_just, first.v_just, first.phase)
    sigs: list[Signature] = []
    seen: set[int] = set()
    for phi in commitments:
        if (phi.h_prep, phi.v_prep, phi.h_just, phi.v_just, phi.phase) != key:
            raise ProtocolError("C-combine on commitments with differing fields")
        for sig in phi.sigs:
            if sig.signer in seen:
                raise ProtocolError("C-combine with duplicate signer")
            seen.add(sig.signer)
            sigs.append(sig)
    return replace(first, sigs=tuple(sigs))


def c_match(
    commitments: list[Commitment],
    k: int,
    h_prep: Hash | None,
    v_prep: int,
    phase: Phase,
) -> bool:
    """Paper's ``C-match``: k matching 1-commitments from distinct nodes.

    Checks (1) exactly ``k`` commitments, (2) all signatures from distinct
    signers, and (3) each commitment's proposed hash/view and phase equal
    the given values.  Justification fields are *not* compared - new-view
    commitments legitimately differ there.
    """
    if len(commitments) != k:
        return False
    signers: set[int] = set()
    for phi in commitments:
        if len(phi.sigs) != 1:
            return False
        if phi.h_prep != h_prep or phi.v_prep != v_prep or phi.phase != phase:
            return False
        signer = phi.sigs[0].signer
        if signer in signers:
            return False
        signers.add(signer)
    return True
