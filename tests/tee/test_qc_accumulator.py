"""Tests for the Damysus-A QC-based accumulator."""

import pytest

from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.errors import TEERefusal
from repro.core.block import genesis_block
from repro.core.certificate import QuorumCert, genesis_qc, vote_payload
from repro.core.messages import NewViewAMsg
from repro.core.phases import Phase
from repro.tee.accumulator import QCAccumulatorService, new_view_a_payload

QUORUM = 3  # 2f+1 with f=1 -> N=4


@pytest.fixture
def env():
    scheme = HmacScheme(secret=b"qc-acc-tests")
    directory = KeyDirectory(scheme)
    for pid in range(4):
        directory.register_replica(pid)
    genesis = genesis_block()
    service = QCAccumulatorService(0, scheme, directory, quorum=QUORUM)
    return scheme, directory, genesis, service


def make_qc(scheme, view, block_hash, signers):
    payload = vote_payload(view, Phase.PREPARE, block_hash)
    return QuorumCert(view, block_hash, Phase.PREPARE, tuple(scheme.sign(s, payload) for s in signers))


def report(scheme, sender, view, qc):
    sig = scheme.sign(sender, new_view_a_payload(view, qc))
    return NewViewAMsg(view, qc, sig)


def test_accumulate_selects_highest_qc(env):
    scheme, _, genesis, service = env
    bottom = genesis_qc(genesis.hash)
    fresh = make_qc(scheme, 2, b"\x11" * 32, [0, 1, 2])
    reports = [
        report(scheme, 0, 3, bottom),
        report(scheme, 1, 3, fresh),
        report(scheme, 2, 3, bottom),
    ]
    acc = service.accumulate(reports)
    assert acc.prep_hash == b"\x11" * 32
    assert acc.prep_view == 2
    assert acc.made_in_view == 3
    assert acc.count == QUORUM


def test_accumulate_rejects_duplicate_reporters(env):
    scheme, _, genesis, service = env
    bottom = genesis_qc(genesis.hash)
    reports = [report(scheme, 0, 3, bottom) for _ in range(3)]
    with pytest.raises(TEERefusal):
        service.accumulate(reports)


def test_accumulate_rejects_bad_report_signature(env):
    scheme, _, genesis, service = env
    bottom = genesis_qc(genesis.hash)
    good = report(scheme, 0, 3, bottom)
    forged = NewViewAMsg(3, bottom, scheme.sign(1, b"wrong payload"))
    with pytest.raises(TEERefusal):
        service.accumulate([good, forged, report(scheme, 2, 3, bottom)])


def test_accumulate_rejects_overstated_fake_qc(env):
    """A Byzantine overstatement with an invalid certificate is caught."""
    scheme, _, genesis, service = env
    bottom = genesis_qc(genesis.hash)
    fake = make_qc(scheme, 99, b"\x66" * 32, [0])  # only one signature
    reports = [
        report(scheme, 0, 3, bottom),
        report(scheme, 1, 3, fake),  # claims the max, QC invalid
        report(scheme, 2, 3, bottom),
    ]
    with pytest.raises(TEERefusal):
        service.accumulate(reports)


def test_accumulate_rejects_cross_view_reports(env):
    scheme, _, genesis, service = env
    bottom = genesis_qc(genesis.hash)
    reports = [
        report(scheme, 0, 3, bottom),
        report(scheme, 1, 4, bottom),
        report(scheme, 2, 3, bottom),
    ]
    with pytest.raises(TEERefusal):
        service.accumulate(reports)


def test_accumulate_rejects_wrong_cardinality(env):
    scheme, _, genesis, service = env
    bottom = genesis_qc(genesis.hash)
    with pytest.raises(TEERefusal):
        service.accumulate([report(scheme, 0, 3, bottom)])


def test_accumulate_rejects_tee_signed_reports(env):
    """Reports must come from replica identities, not TEEs."""
    scheme, directory, genesis, service = env
    directory.register_tee(0)
    from repro.crypto.keys import tee_signer_id

    bottom = genesis_qc(genesis.hash)
    tee_sig = scheme.sign(tee_signer_id(0), new_view_a_payload(3, bottom))
    bad = NewViewAMsg(3, bottom, tee_sig)
    with pytest.raises(TEERefusal):
        service.accumulate([bad, report(scheme, 1, 3, bottom), report(scheme, 2, 3, bottom)])
