"""Tests for quorum certificates and accumulator certificates."""

import pytest

from repro.crypto.hashing import encode_fields
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.scheme import Signature
from repro.core.certificate import Accumulator, QuorumCert, genesis_qc, vote_payload
from repro.core.phases import Phase


@pytest.fixture
def scheme():
    s = HmacScheme(secret=b"certs")
    for signer in range(10):
        s.keygen(signer)
    return s


def make_qc(scheme, signers, view=2, h=b"\x07" * 32, phase=Phase.PREPARE):
    payload = vote_payload(view, phase, h)
    sigs = tuple(scheme.sign(s, payload) for s in signers)
    return QuorumCert(view, h, phase, sigs)


@pytest.mark.parametrize("phase", list(Phase), ids=lambda p: p.name)
def test_vote_payload_memo_is_the_encoding_beneath_it(phase):
    view, block_hash = 1_000_003, bytes(range(32))  # a key no other test uses
    expected = encode_fields(("vote", view, phase.value, block_hash))
    assert vote_payload(view, phase, block_hash) == expected  # miss
    assert vote_payload(view, phase, block_hash) == expected  # hit
    assert vote_payload(view, phase, bytes(block_hash)) == expected  # equal key
    assert vote_payload(view + 1, phase, block_hash) != expected


def test_qc_verify_roundtrip(scheme):
    qc = make_qc(scheme, [0, 1, 2])
    assert qc.verify(scheme, quorum=3)


def test_qc_rejects_wrong_quorum_size(scheme):
    qc = make_qc(scheme, [0, 1, 2])
    assert not qc.verify(scheme, quorum=4)
    assert not qc.verify(scheme, quorum=2)


def test_qc_rejects_duplicate_signers(scheme):
    payload = vote_payload(2, Phase.PREPARE, b"\x07" * 32)
    sig = scheme.sign(0, payload)
    qc = QuorumCert(2, b"\x07" * 32, Phase.PREPARE, (sig, sig, scheme.sign(1, payload)))
    assert not qc.verify(scheme, quorum=3)


def test_qc_rejects_cross_phase_votes(scheme):
    """A prepare vote must not count toward a pre-commit certificate."""
    prepare_payload = vote_payload(2, Phase.PREPARE, b"\x07" * 32)
    sigs = tuple(scheme.sign(s, prepare_payload) for s in range(3))
    wrong = QuorumCert(2, b"\x07" * 32, Phase.PRECOMMIT, sigs)
    assert not wrong.verify(scheme, quorum=3)


def test_qc_certificate_vocabulary(scheme):
    qc = make_qc(scheme, [0, 1, 2], view=5)
    assert qc.cview == qc.view == 5
    assert qc.hash == b"\x07" * 32
    assert len(qc) == 3


def test_genesis_qc_valid_by_fiat(scheme):
    bottom = genesis_qc(b"\x09" * 32)
    assert bottom.verify(scheme, quorum=3)
    assert len(bottom) == 0
    assert bottom.view == 0


def test_qc_wire_size_scales_with_signers(scheme):
    small = make_qc(scheme, [0, 1])
    large = make_qc(scheme, [0, 1, 2, 3])
    assert large.wire_size() == small.wire_size() + 2 * 64


def test_qc_digest_distinguishes_contents(scheme):
    qc1 = make_qc(scheme, [0, 1, 2], view=2)
    qc2 = make_qc(scheme, [0, 1, 2], view=3)
    assert qc1.digest() != qc2.digest()


def make_acc(signer_sig, finalized=True, view=4, pview=2, h=b"\x08" * 32, n=3):
    if finalized:
        return Accumulator(view, pview, h, signer_sig, count=n)
    return Accumulator(view, pview, h, signer_sig, ids=(100, 101, 102))


def test_accumulator_vocabulary(scheme):
    sig = Signature(0, b"x", "hmac")
    acc = make_acc(sig)
    assert acc.cview == 4
    assert acc.view == 2
    assert acc.hash == b"\x08" * 32
    assert len(acc) == 3
    assert acc.finalized


def test_accumulator_working_form_length(scheme):
    sig = Signature(0, b"x", "hmac")
    acc = make_acc(sig, finalized=False)
    assert not acc.finalized
    assert len(acc) == 3


def test_accumulator_signed_payload_depends_on_form(scheme):
    sig = Signature(0, b"x", "hmac")
    assert make_acc(sig).signed_payload() != make_acc(sig, finalized=False).signed_payload()


def test_accumulator_verify(scheme):
    unsigned = Accumulator(4, 2, b"\x08" * 32, Signature(0, b"", "hmac"), count=3)
    sig = scheme.sign(0, unsigned.signed_payload())
    acc = Accumulator(4, 2, b"\x08" * 32, sig, count=3)
    assert acc.verify(scheme)
    bad = Accumulator(5, 2, b"\x08" * 32, sig, count=3)
    assert not bad.verify(scheme)


def test_accumulator_wire_size_forms(scheme):
    sig = Signature(0, b"x", "hmac")
    finalized = make_acc(sig)
    working = make_acc(sig, finalized=False)
    # The finalized form carries a 4-byte count instead of 3 x 4-byte ids.
    assert working.wire_size() - finalized.wire_size() == 8
