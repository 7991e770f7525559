"""Signature scheme interface and signature values.

A :class:`Signature` carries the signer's identity, mirroring the paper's
assumption that "a digital signature contains the identity of the signing
replica or component, which is obtained using sigma.id" (Section 5):
here ``signer``.

Schemes are stateful objects holding a key directory: ``keygen`` registers
a signer, ``sign`` requires that signer's private key, and ``verify`` only
needs the public directory.  Protocol code never touches key material
directly; TEEs hold private keys internally.

Beyond single-signature ``verify``, schemes expose a batch surface:

* :meth:`SignatureScheme.verify_many` checks a list of independent
  ``(message, signature)`` pairs and returns per-pair outcomes;
* :meth:`SignatureScheme.verify_batch` checks many signatures over one
  shared message (the quorum-certificate shape) and returns a single bool.

Subclasses override ``verify_many`` when they have a genuinely cheaper
joint check (Schnorr's random-linear-combination equation, HMAC's fused
single pass); the base class falls back to per-signature verification.
Batch verification never changes *results*: a failing batch falls back to
per-signature checks so the caller learns exactly which signer was bad.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from repro.memo import remember

#: Wire size we account for one signature, matching ECDSA/prime256v1 (64 B).
SIGNATURE_WIRE_SIZE = 64

#: Deterministic per-instance nonces, allocated in construction order.
#: Key material derived from a scheme instance stays distinct between
#: instances (adversaries cannot re-derive another system's keys) yet
#: identical across identically-seeded runs - unlike ``id()``, which is a
#: memory address and breaks bit-for-bit reproducibility.
_SCHEME_NONCE = itertools.count()


class Signature(NamedTuple):
    """A signature over some message bytes, tagged with the signer id.

    An immutable tuple record, not a dataclass, like ``Transaction``: the
    quorum memo of :meth:`SignatureScheme.verify_all` hashes every
    signature of a certificate per lookup, and a tuple hashes in C.
    """

    signer: int
    data: bytes
    scheme: str

    def wire_size(self) -> int:
        return SIGNATURE_WIRE_SIZE


#: Entries kept in a scheme's per-signature verification memo before its
#: oldest half goes.  Sized in views, not in run length: one view of the
#: largest simulated cluster (hotstuff at f = 20, 61 replicas sharing one
#: scheme) leaves about 160 signatures here - a vote per replica per phase
#: plus the new-views - so 1024 hold the last six views or more.  Repeats
#: of a whole certificate are answered by the quorum memo in front of this
#: one; what is left to absorb here is a vote or commitment checked again
#: inside its view (first alone, then inside the certificate it joined).
#: The cap only bounds memory: every entry is recomputable from its key.
_VERIFY_CACHE_MAX = 1024

#: Entries kept in a scheme's quorum memo (:meth:`SignatureScheme.verify_all`)
#: before its oldest half goes.  A view yields a few distinct certificates
#: (about eight at damysus f = 20), each checked by every replica it
#: reaches, so 256 cover dozens of views.
_QUORUM_CACHE_MAX = 256

#: A pair accepted by :meth:`SignatureScheme.verify_many`.
VerifyPair = tuple[bytes, Signature]


class SignatureScheme:
    """Common interface of the Schnorr and HMAC schemes."""

    name = "abstract"

    def __init__(self) -> None:
        self.instance_nonce = next(_SCHEME_NONCE)
        # Memoized verification outcomes keyed by (signer, message, sig
        # bytes).  Verification is a pure function of that key and the
        # signer's registered public key, so re-delivered or re-validated
        # messages (every replica checks the same quorum certificate)
        # skip the underlying crypto.  Keygen invalidates the memo.
        self._verify_cache: dict[tuple[int, bytes, bytes], bool] = {}
        # Memoized verify_all verdicts keyed by (message, signatures).  The
        # key holds every signature whole (signer, bytes, scheme) and the
        # verdict is a pure function of it and the directory, so a repeat
        # of the same certificate costs one lookup; any other signature
        # list, or the same one over another message, is another key.
        self._quorum_cache: dict[tuple[bytes, tuple[Signature, ...]], bool] = {}

    def keygen(self, signer: int) -> None:
        """Create and register a key pair for ``signer``."""
        raise NotImplementedError

    def sign(self, signer: int, message: bytes) -> Signature:
        """Sign ``message`` with ``signer``'s private key."""
        raise NotImplementedError

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Check ``signature`` over ``message`` against the public directory."""
        raise NotImplementedError

    # -- batch surface ---------------------------------------------------------

    def verify_many(self, pairs: Sequence[VerifyPair]) -> list[bool]:
        """Check independent ``(message, signature)`` pairs; one bool each.

        The base implementation is a plain loop.  Subclasses override it
        with an algebraic or fused batch check; overrides must return
        exactly the same outcomes as the loop (a failed joint check falls
        back to per-pair verification to identify the bad signature).
        """
        return [self.verify(message, sig) for message, sig in pairs]

    def verify_batch(self, message: bytes, sigs: Sequence[Signature]) -> bool:
        """Check many signatures over one shared message (the QC shape)."""
        return all(self.verify_many([(message, sig) for sig in sigs]))

    # -- memo ------------------------------------------------------------------

    def verify_cached(self, message: bytes, signature: Signature) -> bool:
        """:meth:`verify`, memoized by ``(signer, message, sig bytes)``."""
        key = (signature.signer, message, signature.data)
        cached = self._verify_cache.get(key)
        if cached is None:
            cached = remember(
                self._verify_cache, key, self.verify(message, signature), _VERIFY_CACHE_MAX
            )
        return cached

    def cached_verification(self, message: bytes, signature: Signature) -> bool | None:
        """Probe the memo without computing: the outcome, or ``None`` on miss."""
        return self._verify_cache.get((signature.signer, message, signature.data))

    def _forget_cached_verifications(self) -> None:
        """Drop memoized outcomes; called whenever the key directory changes."""
        self._verify_cache.clear()
        self._quorum_cache.clear()

    def verify_many_cached(self, pairs: Sequence[VerifyPair]) -> list[bool]:
        """:meth:`verify_many` with the memo consulted and updated per pair.

        Cache hits drop out of the batch; only the misses enter the joint
        check, and their outcomes are remembered for the next caller.
        """
        cache = self._verify_cache
        outcomes: list[bool | None] = []
        misses: list[tuple[int, VerifyPair]] = []
        for index, (message, sig) in enumerate(pairs):
            cached = cache.get((sig.signer, message, sig.data))
            if cached is None:
                misses.append((index, (message, sig)))
            outcomes.append(cached)
        if misses:
            fresh = self.verify_many([pair for _, pair in misses])
            for (index, (message, sig)), outcome in zip(misses, fresh):
                remember(cache, (sig.signer, message, sig.data), outcome, _VERIFY_CACHE_MAX)
                outcomes[index] = outcome
        return [bool(outcome) for outcome in outcomes]

    # -- quorum helper ---------------------------------------------------------

    def verify_all(self, message: bytes, signatures: Sequence[Signature]) -> bool:
        """Verify signatures over the same message, via the batch fast path.

        Also enforces the quorum-certificate requirement that all
        signatures come from *distinct* signers.  The verdict is memoized
        per ``(message, signatures)``, so the next replica validating the
        same quorum certificate pays one lookup; a miss runs the distinct-
        signer check and then the per-signature memo, so a certificate
        that shares signatures with an earlier one skips their crypto.
        """
        sigs = tuple(signatures)
        key = (message, sigs)
        verdict = self._quorum_cache.get(key)
        if verdict is None:
            verdict = len({sig.signer for sig in sigs}) == len(sigs) and all(
                self.verify_many_cached([(message, sig) for sig in sigs])
            )
            remember(self._quorum_cache, key, verdict, _QUORUM_CACHE_MAX)
        return verdict
