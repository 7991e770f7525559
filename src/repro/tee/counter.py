"""A plain TrInc/MinBFT-style trusted monotonic counter.

This is the "simplest established trusted component" discussed in
Section 4.1: every attested message receives a fresh, strictly increasing
counter value bound to the message by a TEE signature.  It prevents
equivocation on a per-counter-value basis - but, as the paper demonstrates
and :mod:`repro.analysis.counterexample` reproduces, it is *not*
sufficient to make a 2f+1 HotStuff-like protocol safe, because receivers
cannot tell whether a gap in counter values hides messages about
prepared/locked blocks that were sent to other nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Hash, encode_fields
from repro.crypto.keys import KeyDirectory
from repro.crypto.scheme import Signature, SignatureScheme
from repro.tee.base import TrustedComponent


@dataclass(frozen=True)
class CounterCertificate:
    """Attestation that a message was assigned one unique counter value."""

    component_id: int
    value: int
    message_digest: Hash
    signature: Signature

    def signed_payload(self) -> bytes:
        return counter_payload(self.component_id, self.value, self.message_digest)


def counter_payload(component_id: int, value: int, message_digest: Hash) -> bytes:
    return encode_fields(("trinc", component_id, value, message_digest))


class TrustedCounter(TrustedComponent):
    """Monotonic counter: each attestation consumes the next value."""

    def __init__(self, replica: int, scheme: SignatureScheme, directory: KeyDirectory) -> None:
        super().__init__(replica, scheme, directory)
        self._value = 0

    @property
    def value(self) -> int:
        """Number of attestations issued so far (reads do not consume)."""
        return self._value

    def attest(self, message_digest: Hash) -> CounterCertificate:
        """Bind ``message_digest`` to the next counter value."""
        self._count_call()
        self._value += 1
        payload = counter_payload(self._signer, self._value, message_digest)
        return CounterCertificate(
            component_id=self._signer,
            value=self._value,
            message_digest=message_digest,
            # TrInc attests an *unverified* host digest by design: the
            # certificate binds presentation order, not validity - which
            # is precisely why Section 4.1 (and counterexample.py) show a
            # bare counter cannot make a 2f+1 protocol safe.
            signature=self._sign(payload),  # repro-lint: ignore[TAINT002]
        )

    def verify_certificate(self, cert: CounterCertificate) -> bool:
        """Check any component's attestation against the directory."""
        if self._directory.kind_of(cert.signature.signer) != "tee":
            return False
        if cert.signature.signer != cert.component_id:
            return False
        return self._scheme.verify_cached(cert.signed_payload(), cert.signature)


def verify_counter_certificate(
    scheme: SignatureScheme, directory: KeyDirectory, cert: CounterCertificate
) -> bool:
    """Untrusted-side verification of a counter attestation."""
    if directory.kind_of(cert.signature.signer) != "tee":
        return False
    if cert.signature.signer != cert.component_id:
        return False
    return scheme.verify_cached(cert.signed_payload(), cert.signature)
