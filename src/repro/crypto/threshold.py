"""k-of-n threshold signatures (simulation-grade, BLS-style interface).

The original HotStuff uses threshold signatures so quorum certificates
stay constant-size; the DAMYSUS implementation (and our default) uses
ECDSA signature lists instead.  This module provides the threshold
alternative so the benchmarks can quantify what compact certificates buy
at large f.

Model: a member's *share* is its ordinary signature, ``base.sign``; ``combine``
verifies that at least ``threshold`` distinct members contributed valid
shares and emits a single group signature, an authenticator under a
group secret that only the scheme object holds.  As with the HMAC
scheme, unforgeability holds inside the simulation by encapsulation: no
replica or adversary code can reach the group secret, so the only way to
obtain a group signature is to present a genuine quorum of shares.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.scheme import Signature, SignatureScheme
from repro.errors import CryptoError, VerificationError

#: Signer id carried by group signatures.
GROUP_SIGNER_ID = -1

#: Scheme tag carried by group signatures.
THRESHOLD_TAG = "threshold"


class ThresholdScheme:
    """Combine ordinary signature shares into one constant-size signature."""

    def __init__(
        self,
        base: SignatureScheme,
        group_name: str,
        members: list[int],
        threshold: int,
    ) -> None:
        if threshold < 1 or threshold > len(members):
            raise CryptoError(
                f"threshold {threshold} out of range for {len(members)} members"
            )
        self.base = base
        self.members = frozenset(members)
        self.threshold = threshold
        # Bound to the base scheme's deterministic instance nonce: every
        # group over the same base derives the same secret (so replicas'
        # independently-built groups agree on combined signatures), while
        # distinct systems cannot cross-verify each other's certificates.
        self._group_secret = hashlib.sha256(
            f"threshold:{group_name}:{sorted(members)}:{threshold}:"
            f"{base.name}:{base.instance_nonce}".encode()
        ).digest()

    # -- combination ----------------------------------------------------------------

    def combine(self, message: bytes, shares: list[Signature]) -> Signature:
        """Verify >= threshold distinct member shares; emit the group signature.

        Membership and distinctness are checked first; the shares then
        verify jointly through the base scheme's batch path (they all
        sign the same message - the quorum-certificate shape).
        """
        signers: set[int] = set()
        for share in shares:
            if share.signer not in self.members:
                raise VerificationError(f"share from non-member {share.signer}")
            if share.signer in signers:
                raise VerificationError(f"duplicate share from {share.signer}")
            signers.add(share.signer)
        outcomes = self.base.verify_many([(message, share) for share in shares])
        for share, outcome in zip(shares, outcomes):
            if not outcome:
                raise VerificationError(f"invalid share from {share.signer}")
        if len(signers) < self.threshold:
            raise VerificationError(
                f"only {len(signers)} valid shares, need {self.threshold}"
            )
        mac = hmac.new(self._group_secret, message, hashlib.sha256).digest()
        return Signature(signer=GROUP_SIGNER_ID, data=mac, scheme=THRESHOLD_TAG)

    def verify_group(self, message: bytes, signature: Signature) -> bool:
        """Constant-time verification of a combined signature."""
        if signature.scheme != THRESHOLD_TAG or signature.signer != GROUP_SIGNER_ID:
            return False
        expected = hmac.new(self._group_secret, message, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature.data)


def is_group_signature(signature: Signature) -> bool:
    return signature.scheme == THRESHOLD_TAG
