"""Key pairs and the shared public-key directory.

Replica ``i``'s untrusted code and its trusted components use distinct
signer identities so that a TEE certificate can never be confused with a
plain replica signature: replica ``i`` signs as ``i`` and its trusted
component signs as ``tee_signer_id(i)``.  The directory records which
identities exist and of which kind, mirroring the paper's "public keys"
state replicated inside every TEE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.scheme import SignatureScheme

#: Offset separating TEE signer ids from replica signer ids.
_TEE_ID_OFFSET = 1_000_000


def tee_signer_id(replica: int) -> int:
    """Signer identity of replica ``replica``'s trusted component."""
    return _TEE_ID_OFFSET + replica


@dataclass(frozen=True)
class KeyPair:
    """Marker that a signer identity has been registered with the scheme."""

    signer: int
    kind: str  # "replica" or "tee"


class KeyDirectory:
    """Registry of all signer identities in one system instance."""

    def __init__(self, scheme: SignatureScheme) -> None:
        self.scheme = scheme
        self._pairs: dict[int, KeyPair] = {}

    def register_replica(self, replica: int) -> KeyPair:
        """Create keys for a replica's untrusted identity."""
        return self._register(replica, "replica")

    def register_tee(self, replica: int) -> KeyPair:
        """Create keys for a replica's trusted-component identity."""
        return self._register(tee_signer_id(replica), "tee")

    def _register(self, signer: int, kind: str) -> KeyPair:
        if signer in self._pairs:
            return self._pairs[signer]
        self.scheme.keygen(signer)
        pair = KeyPair(signer=signer, kind=kind)
        self._pairs[signer] = pair
        return pair

    def kind_of(self, signer: int) -> str | None:
        """Return "replica"/"tee" for known signers, None otherwise."""
        pair = self._pairs.get(signer)
        return pair.kind if pair else None

    def known(self, signer: int) -> bool:
        return signer in self._pairs
