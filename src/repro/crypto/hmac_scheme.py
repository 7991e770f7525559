"""Fast HMAC-based signature scheme for large simulations.

Big-int Schnorr in pure Python costs ~1 ms per operation, which would make
121-node benchmark sweeps take hours of wall time while teaching us nothing:
the *simulated* cost of crypto is charged to the virtual clock by the cost
model, not by Python arithmetic.  This scheme makes each sign/verify a
single HMAC-SHA256 call.

Unforgeability inside the simulation is preserved by construction: each
signer's MAC key lives in this scheme object's private dictionary, and
Byzantine behaviours implemented in :mod:`repro.adversary` only interact
with the scheme through ``sign``/``verify`` using their own identities.
The declared wire size of a signature stays 64 B (ECDSA-sized) so message
byte accounting is identical under either scheme.

There is no HMAC analogue of Schnorr's algebraic batch equation, but the
batch surface still wins here: ``verify_many`` is a fused single pass
that reuses a precomputed per-signer HMAC base state (``copy()`` of a
keyed digest skips the two key-padding compression rounds that
``hmac.new`` pays on every call).
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Sequence

from repro.crypto.scheme import Signature, SignatureScheme, VerifyPair
from repro.errors import CryptoError


class HmacScheme(SignatureScheme):
    """Per-signer HMAC-SHA256 'signatures' (simulation-grade)."""

    name = "hmac"

    def __init__(self, secret: bytes = b"repro-hmac-scheme") -> None:
        super().__init__()
        self._secret = secret
        self._keys: dict[int, bytes] = {}
        # Keyed-but-empty HMAC states: cloning one is ~4x cheaper than
        # rebuilding the key schedule with hmac.new per verification.
        self._bases: dict[int, hmac.HMAC] = {}

    def keygen(self, signer: int) -> None:
        if signer in self._keys:
            return
        key = hashlib.sha256(
            self._secret + signer.to_bytes(8, "big", signed=True)
        ).digest()
        self._keys[signer] = key
        self._bases[signer] = hmac.new(key, None, hashlib.sha256)
        self._forget_cached_verifications()

    def _mac(self, signer: int, message: bytes) -> bytes | None:
        base = self._bases.get(signer)
        if base is None:
            return None
        state = base.copy()
        state.update(message)
        return state.digest()

    def sign(self, signer: int, message: bytes) -> Signature:
        mac = self._mac(signer, message)
        if mac is None:
            raise CryptoError(f"no key registered for signer {signer}")
        return Signature(signer=signer, data=mac, scheme=self.name)

    def verify(self, message: bytes, signature: Signature) -> bool:
        if signature.scheme != self.name:
            return False
        expected = self._mac(signature.signer, message)
        if expected is None:
            return False
        return hmac.compare_digest(expected, signature.data)

    def verify_many(self, pairs: Sequence[VerifyPair]) -> list[bool]:
        """Fused single pass: clone per-signer base states, compare digests."""
        bases = self._bases
        compare = hmac.compare_digest
        name = self.name
        outcomes: list[bool] = []
        for message, sig in pairs:
            base = bases.get(sig.signer)
            if base is None or sig.scheme != name:
                outcomes.append(False)
                continue
            state = base.copy()
            state.update(message)
            outcomes.append(compare(state.digest(), sig.data))
        return outcomes
