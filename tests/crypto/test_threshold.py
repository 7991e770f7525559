"""Tests for the threshold signature scheme."""

import pytest

from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.scheme import Signature
from repro.crypto.threshold import (
    GROUP_SIGNER_ID,
    ThresholdScheme,
    is_group_signature,
)
from repro.errors import CryptoError, VerificationError

MSG = b"threshold-message"


@pytest.fixture
def scheme():
    base = HmacScheme(secret=b"threshold-tests")
    for signer in range(5):
        base.keygen(signer)
    return ThresholdScheme(base, "grp", members=[0, 1, 2, 3], threshold=3)


def shares(scheme, signers, message=MSG):
    return [scheme.base.sign(s, message) for s in signers]


def test_combine_and_verify(scheme):
    group = scheme.combine(MSG, shares(scheme, [0, 1, 2]))
    assert is_group_signature(group)
    assert group.signer == GROUP_SIGNER_ID
    assert scheme.verify_group(MSG, group)
    assert not scheme.verify_group(b"other", group)


def test_combine_requires_threshold(scheme):
    with pytest.raises(VerificationError):
        scheme.combine(MSG, shares(scheme, [0, 1]))


def test_combine_rejects_duplicates(scheme):
    two = shares(scheme, [0, 1])
    with pytest.raises(VerificationError):
        scheme.combine(MSG, [*two, two[0]])


def test_combine_rejects_non_members(scheme):
    base_shares = shares(scheme, [0, 1])
    outsider = scheme.base.sign(4, MSG)  # signer 4 is not a member
    with pytest.raises(VerificationError):
        scheme.combine(MSG, [*base_shares, outsider])


def test_combine_rejects_invalid_shares(scheme):
    good = shares(scheme, [0, 1])
    forged = Signature(2, b"\x00" * 32, "hmac")
    with pytest.raises(VerificationError):
        scheme.combine(MSG, [*good, forged])


def test_group_signature_constant_size(scheme):
    g3 = scheme.combine(MSG, shares(scheme, [0, 1, 2]))
    g4 = scheme.combine(MSG, shares(scheme, [0, 1, 2, 3]))
    assert len(g3.data) == len(g4.data) == 32


def test_distinct_groups_do_not_cross_verify():
    base = HmacScheme(secret=b"x")
    for s in range(4):
        base.keygen(s)
    g1 = ThresholdScheme(base, "a", [0, 1, 2], 2)
    g2 = ThresholdScheme(base, "b", [0, 1, 2], 2)
    sig = g1.combine(MSG, [base.sign(0, MSG), base.sign(1, MSG)])
    assert not g2.verify_group(MSG, sig)


def test_invalid_threshold_rejected():
    base = HmacScheme()
    with pytest.raises(CryptoError):
        ThresholdScheme(base, "g", [0, 1], threshold=3)
    with pytest.raises(CryptoError):
        ThresholdScheme(base, "g", [0, 1], threshold=0)
