"""Micro-benchmarks of the cryptographic substrate (real wall time).

Unlike the figure benchmarks (which measure *simulated* time), these
time the actual Python implementations: the from-scratch Schnorr scheme
over both parameter sets, the HMAC simulation scheme, the canonical
field encoding that underlies every signature payload, and the two
ways a 2f+1-signature quorum certificate can be checked - per signature
and jointly via the batch equation.
"""

import pytest

from repro.crypto.hashing import encode_fields, hash_fields
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.schnorr import GROUP_2048, GROUP_TEST, SchnorrScheme

MESSAGE = b"damysus-benchmark-message"

#: Fault thresholds matching the paper's figures; quorum size is 2f+1.
QUORUM_THRESHOLDS = (2, 10, 20)


@pytest.fixture(scope="module")
def schnorr_test():
    scheme = SchnorrScheme(GROUP_TEST)
    scheme.keygen(1)
    return scheme


@pytest.fixture(scope="module")
def schnorr_2048():
    scheme = SchnorrScheme(GROUP_2048)
    scheme.keygen(1)
    return scheme


@pytest.fixture(scope="module")
def hmac_scheme():
    scheme = HmacScheme()
    scheme.keygen(1)
    return scheme


def test_schnorr_sign_256(benchmark, schnorr_test):
    sig = benchmark(lambda: schnorr_test.sign(1, MESSAGE))
    assert schnorr_test.verify(MESSAGE, sig)


def test_schnorr_verify_256(benchmark, schnorr_test):
    sig = schnorr_test.sign(1, MESSAGE)
    assert benchmark(lambda: schnorr_test.verify(MESSAGE, sig))


def test_schnorr_sign_2048(benchmark, schnorr_2048):
    sig = benchmark(lambda: schnorr_2048.sign(1, MESSAGE))
    assert schnorr_2048.verify(MESSAGE, sig)


def test_schnorr_verify_2048(benchmark, schnorr_2048):
    sig = schnorr_2048.sign(1, MESSAGE)
    assert benchmark(lambda: schnorr_2048.verify(MESSAGE, sig))


def test_hmac_sign(benchmark, hmac_scheme):
    sig = benchmark(lambda: hmac_scheme.sign(1, MESSAGE))
    assert hmac_scheme.verify(MESSAGE, sig)


@pytest.fixture(scope="module")
def qc_pairs():
    """One quorum certificate's worth of pairs per fault threshold."""
    pairs_by_f = {}
    for f in QUORUM_THRESHOLDS:
        k = 2 * f + 1
        scheme = SchnorrScheme(GROUP_2048)
        for signer in range(k):
            scheme.keygen(signer)
        pairs_by_f[f] = (
            scheme,
            [(MESSAGE, scheme.sign(signer, MESSAGE)) for signer in range(k)],
        )
    return pairs_by_f


@pytest.mark.parametrize("f", QUORUM_THRESHOLDS)
def test_qc_verify_per_sig(benchmark, qc_pairs, f):
    scheme, pairs = qc_pairs[f]
    outcomes = benchmark(lambda: [scheme.verify(m, sig) for m, sig in pairs])
    assert all(outcomes)


@pytest.mark.parametrize("f", QUORUM_THRESHOLDS)
def test_qc_verify_batch(benchmark, qc_pairs, f):
    scheme, pairs = qc_pairs[f]
    outcomes = benchmark(lambda: scheme.verify_many(pairs))
    assert all(outcomes)


def test_field_encoding(benchmark):
    fields = ("commitment", b"\x01" * 32, 12345, b"\x02" * 32, 12344, "prep_p")
    out = benchmark(lambda: encode_fields(fields))
    assert out


def test_field_hashing(benchmark):
    fields = ("block", b"\x01" * 32, 7, b"\x03" * 32, ())
    digest = benchmark(lambda: hash_fields(fields))
    assert len(digest) == 32
