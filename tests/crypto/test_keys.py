"""Tests for key pairs and the shared directory."""

from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory, tee_signer_id


def test_tee_signer_ids_disjoint_from_replicas():
    tee_ids = {tee_signer_id(replica) for replica in range(100)}
    assert len(tee_ids) == 100
    assert tee_ids.isdisjoint(range(100))


def test_directory_kinds():
    scheme = HmacScheme()
    directory = KeyDirectory(scheme)
    directory.register_replica(3)
    directory.register_tee(3)
    assert directory.kind_of(3) == "replica"
    assert directory.kind_of(tee_signer_id(3)) == "tee"
    assert directory.kind_of(4) is None
    assert directory.known(3)
    assert not directory.known(4)


def test_registration_is_idempotent():
    scheme = HmacScheme()
    directory = KeyDirectory(scheme)
    pair1 = directory.register_replica(1)
    pair2 = directory.register_replica(1)
    assert pair1 == pair2


def test_registered_signer_can_sign():
    scheme = HmacScheme()
    directory = KeyDirectory(scheme)
    directory.register_tee(2)
    sig = scheme.sign(tee_signer_id(2), b"m")
    assert scheme.verify(b"m", sig)


def test_replica_signature_never_verifies_as_tee():
    """A replica key must not be able to impersonate its TEE."""
    scheme = HmacScheme()
    directory = KeyDirectory(scheme)
    directory.register_replica(1)
    directory.register_tee(1)
    replica_sig = scheme.sign(1, b"m")
    assert directory.kind_of(replica_sig.signer) == "replica"
    # The signature itself is valid, but its signer identity is a replica,
    # which is exactly what TEE verification paths check.
    assert scheme.verify(b"m", replica_sig)
