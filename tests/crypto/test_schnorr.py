"""Tests for the from-scratch Schnorr signature scheme."""

import pytest

from repro.crypto.scheme import Signature
from repro.crypto.schnorr import GROUP_2048, GROUP_TEST, SchnorrGroup, SchnorrScheme
from repro.errors import CryptoError


@pytest.fixture
def scheme():
    s = SchnorrScheme(GROUP_TEST)
    s.keygen(1)
    s.keygen(2)
    return s


def test_groups_are_wellformed():
    for group in (GROUP_TEST, GROUP_2048):
        assert pow(group.g, group.q, group.p) == 1  # g has order dividing q
        assert pow(group.g, 2, group.p) != 1  # and is not trivial


def test_test_prime_is_safe_prime():
    # Miller-Rabin on p and q = (p-1)/2 with fixed witnesses.
    def is_probable_prime(n: int) -> bool:
        if n % 2 == 0:
            return n == 2
        d, r = n - 1, 0
        while d % 2 == 0:
            d //= 2
            r += 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(r - 1):
                x = pow(x, 2, n)
                if x == n - 1:
                    break
            else:
                return False
        return True

    assert is_probable_prime(GROUP_TEST.p)
    assert is_probable_prime(GROUP_TEST.q)


def test_sign_verify_roundtrip(scheme):
    sig = scheme.sign(1, b"message")
    assert scheme.verify(b"message", sig)


def test_verify_rejects_wrong_message(scheme):
    sig = scheme.sign(1, b"message")
    assert not scheme.verify(b"other", sig)


def test_verify_rejects_wrong_signer_claim(scheme):
    sig = scheme.sign(1, b"message")
    forged = Signature(signer=2, data=sig.data, scheme=sig.scheme)
    assert not scheme.verify(b"message", forged)


def test_verify_rejects_tampered_signature(scheme):
    sig = scheme.sign(1, b"message")
    tampered = Signature(1, bytes([sig.data[0] ^ 1]) + sig.data[1:], sig.scheme)
    assert not scheme.verify(b"message", tampered)


def test_verify_rejects_wrong_length(scheme):
    sig = scheme.sign(1, b"message")
    assert not scheme.verify(b"message", Signature(1, sig.data[:-1], sig.scheme))


def test_verify_rejects_unknown_signer(scheme):
    sig = scheme.sign(1, b"m")
    assert not scheme.verify(b"m", Signature(99, sig.data, sig.scheme))


def test_verify_rejects_other_scheme_tag(scheme):
    sig = scheme.sign(1, b"m")
    assert not scheme.verify(b"m", Signature(1, sig.data, "hmac"))


def test_sign_without_key_raises(scheme):
    with pytest.raises(CryptoError):
        scheme.sign(42, b"m")


def test_signing_is_deterministic(scheme):
    assert scheme.sign(1, b"m").data == scheme.sign(1, b"m").data


def test_different_signers_produce_different_signatures(scheme):
    assert scheme.sign(1, b"m").data != scheme.sign(2, b"m").data


def test_keygen_idempotent(scheme):
    before = scheme.sign(1, b"m")
    scheme.keygen(1)
    assert scheme.sign(1, b"m") == before
    assert scheme.verify(b"m", before)


def test_verify_all_requires_distinct_signers(scheme):
    sig1 = scheme.sign(1, b"m")
    sig2 = scheme.sign(2, b"m")
    assert scheme.verify_all(b"m", [sig1, sig2])
    assert not scheme.verify_all(b"m", [sig1, sig1])


def test_2048_group_roundtrip():
    scheme = SchnorrScheme(GROUP_2048)
    scheme.keygen(5)
    sig = scheme.sign(5, b"big-group")
    assert scheme.verify(b"big-group", sig)
    assert not scheme.verify(b"other", sig)


def test_invalid_group_rejected():
    # 15 = 3 * 5 is not a safe prime and g=4 has tiny order mod small p.
    with pytest.raises(CryptoError):
        SchnorrGroup("bad", 23, 5)  # 5 generates the full group, order 22 != 11
