"""Tests for commitments and C-combine / C-match (Section 6.2)."""

import pytest

from repro.crypto.hmac_scheme import HmacScheme
from repro.errors import ProtocolError
from repro.core.commitment import Commitment, c_combine, c_match
from repro.core.phases import Phase


@pytest.fixture
def scheme():
    s = HmacScheme(secret=b"commitments")
    for signer in range(10):
        s.keygen(signer)
    return s


def make(scheme, signer, h=b"\x01" * 32, v=3, hj=b"\x02" * 32, vj=2, ph=Phase.PREPARE):
    from repro.core.commitment import commitment_payload

    sig = scheme.sign(signer, commitment_payload(h, v, hj, vj, ph))
    return Commitment(h, v, hj, vj, ph, (sig,))


def test_accessors_match_paper_notation(scheme):
    # <Hprep, Vprep, Hjust, Vjust, ph, sign> in the paper's order.
    phi = make(scheme, 0)
    assert phi.h_prep == b"\x01" * 32
    assert phi.v_prep == 3
    assert phi.h_just == b"\x02" * 32
    assert phi.v_just == 2
    assert phi.phase == Phase.PREPARE
    assert len(phi.sigs) == 1


def test_verify_roundtrip(scheme):
    phi = make(scheme, 0)
    assert phi.verify(scheme)


def test_verify_rejects_field_tampering(scheme):
    phi = make(scheme, 0)
    from dataclasses import replace

    assert not replace(phi, v_prep=4).verify(scheme)
    assert not replace(phi, phase=Phase.PRECOMMIT).verify(scheme)
    assert not replace(phi, h_prep=None).verify(scheme)


def test_verify_rejects_empty_signatures():
    phi = Commitment(b"\x01" * 32, 1, None, None, Phase.PREPARE, ())
    assert not phi.verify(HmacScheme())


def test_c_combine_merges_signatures(scheme):
    phis = [make(scheme, s) for s in range(3)]
    combined = c_combine(phis)
    assert len(combined.sigs) == 3
    assert combined.verify(scheme)
    assert combined.h_prep == phis[0].h_prep


def test_c_combine_rejects_mismatched_fields(scheme):
    with pytest.raises(ProtocolError):
        c_combine([make(scheme, 0), make(scheme, 1, v=4)])
    with pytest.raises(ProtocolError):
        c_combine([make(scheme, 0), make(scheme, 1, ph=Phase.PRECOMMIT)])


def test_c_combine_rejects_duplicate_signer(scheme):
    with pytest.raises(ProtocolError):
        c_combine([make(scheme, 0), make(scheme, 0)])


def test_c_combine_rejects_empty():
    with pytest.raises(ProtocolError):
        c_combine([])


def test_c_match_happy_path(scheme):
    phis = [make(scheme, s) for s in range(3)]
    assert c_match(phis, 3, b"\x01" * 32, 3, Phase.PREPARE)


def test_c_match_ignores_justification_fields(scheme):
    """New-view commitments legitimately differ in (Hjust, Vjust)."""
    phis = [
        make(scheme, 0, h=None, ph=Phase.NEW_VIEW, hj=b"\x03" * 32, vj=1),
        make(scheme, 1, h=None, ph=Phase.NEW_VIEW, hj=b"\x04" * 32, vj=2),
    ]
    assert c_match(phis, 2, None, 3, Phase.NEW_VIEW)


def test_c_match_rejects_wrong_count(scheme):
    phis = [make(scheme, s) for s in range(3)]
    assert not c_match(phis, 2, b"\x01" * 32, 3, Phase.PREPARE)
    assert not c_match(phis, 4, b"\x01" * 32, 3, Phase.PREPARE)


def test_c_match_rejects_duplicate_signers(scheme):
    phis = [make(scheme, 0), make(scheme, 0)]
    assert not c_match(phis, 2, b"\x01" * 32, 3, Phase.PREPARE)


def test_c_match_rejects_field_mismatch(scheme):
    phis = [make(scheme, 0), make(scheme, 1, v=4)]
    assert not c_match(phis, 2, b"\x01" * 32, 3, Phase.PREPARE)
    phis2 = [make(scheme, 0), make(scheme, 1, ph=Phase.NEW_VIEW)]
    assert not c_match(phis2, 2, b"\x01" * 32, 3, Phase.PREPARE)


def test_c_match_rejects_multi_sig_entries(scheme):
    combined = c_combine([make(scheme, 0), make(scheme, 1)])
    assert not c_match([combined, make(scheme, 2)], 2, b"\x01" * 32, 3, Phase.PREPARE)


def test_chained_accessors(scheme):
    prep = make(scheme, 0, h=b"\x05" * 32, v=7, hj=None, vj=None, ph=Phase.PREPARE)
    assert prep.view == 7
    nv = make(scheme, 1, h=None, v=7, hj=b"\x06" * 32, vj=5, ph=Phase.NEW_VIEW)
    assert nv.view == 7


def test_certificate_vocabulary(scheme):
    prep = make(scheme, 0, h=b"\x05" * 32, v=7)
    assert prep.cview == 7
    assert prep.hash == b"\x05" * 32
    assert len(prep.digest()) == 32


def test_wire_size_grows_with_signatures(scheme):
    single = make(scheme, 0)
    combined = c_combine([make(scheme, s) for s in range(3)])
    assert combined.wire_size() == single.wire_size() + 2 * 64
