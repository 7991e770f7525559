"""The quorum memo in front of ``verify_all``: a repeated ``(message,
signatures)`` costs one lookup, and no sequence of calls can make it answer
other than a scheme that has never seen a certificate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.scheme import Signature

SECRET = b"quorum-memo"
#: Signers in the directory; ``OUTSIDER`` signs with a real key but is not
#: registered until a test says so.
MEMBERS = range(7)
OUTSIDER = 9


def directory(*extra):
    """A fresh scheme: the same keys as every other one built here."""
    scheme = HmacScheme(secret=SECRET)
    for signer in (*MEMBERS, *extra):
        scheme.keygen(signer)
    return scheme


#: Signs for anyone, outsider included; never used to verify.
SIGNER = directory(OUTSIDER)


def altered(sig):
    return Signature(sig.signer, sig.data[:-1] + bytes((sig.data[-1] ^ 1,)), sig.scheme)


def variants(message, signers):
    """The honest certificate and its four neighbours, as ``(label, sigs)``."""
    sigs = [SIGNER.sign(signer, message) for signer in signers]
    yield "honest", tuple(sigs)
    yield "as-list", list(sigs)
    yield "duplicate", (*sigs, sigs[0])
    yield "altered", (*sigs[:-1], altered(sigs[-1]))
    yield "outsider", (*sigs[:-1], SIGNER.sign(OUTSIDER, message))


def fresh_verdict(message, sigs, *extra):
    return directory(*extra).verify_all(message, sigs)


def definition(scheme, message, sigs):
    """What ``verify_all`` means, with no memo anywhere."""
    return len({sig.signer for sig in sigs}) == len(sigs) and all(
        scheme.verify(message, sig) for sig in sigs
    )


CERTS = st.lists(
    st.tuples(
        st.integers(0, 3),  # message index: certificates share messages
        st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=5, unique=True),
        st.sampled_from(["honest", "as-list", "duplicate", "altered", "outsider"]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(certs=CERTS)
def test_a_warm_memo_answers_as_a_fresh_scheme(certs):
    """Every call twice, against a memo warmed by every call before it; the
    verdicts it keeps are the definition of their keys."""
    scheme = directory()
    for index, signers, label in certs:
        message = f"qc-{index}".encode()
        for name, sigs in variants(message, signers):
            scheme.verify_all(message, sigs)  # warm every neighbour too
            if name == label:
                chosen = sigs
        expected = fresh_verdict(message, chosen)
        assert expected is (label in ("honest", "as-list"))
        assert scheme.verify_all(message, chosen) is expected
        assert scheme.verify_all(message, chosen) is expected
    for (message, sigs), verdict in scheme._quorum_cache.items():
        assert verdict is definition(scheme, message, sigs)


def test_the_memo_answers_the_repeat_without_the_signatures():
    scheme = directory()
    message = b"repeat"
    sigs = tuple(SIGNER.sign(signer, message) for signer in MEMBERS)
    assert scheme.verify_all(message, sigs)
    scheme._verify_cache.clear()  # only the quorum memo can answer now
    assert scheme.verify_all(message, list(sigs))
    assert not scheme._verify_cache


def test_the_memo_is_keyed_by_every_signature_not_the_message():
    scheme = directory()
    message = b"same message"
    honest = tuple(SIGNER.sign(signer, message) for signer in MEMBERS)
    assert scheme.verify_all(message, honest)
    assert not scheme.verify_all(message, (*honest[:-1], altered(honest[-1])))
    assert not scheme.verify_all(message, (*honest[1:], honest[1]))
    assert not scheme.verify_all(b"other message", honest)


def test_a_duplicated_signer_is_refused_and_remembered_as_refused():
    scheme = directory()
    message = b"dup"
    sig = SIGNER.sign(0, message)
    for _ in range(3):
        assert not scheme.verify_all(message, (sig, sig))
    assert scheme._quorum_cache == {(message, (sig, sig)): False}


def test_keygen_empties_the_memo():
    """An outsider's certificate is refused; once the outsider is
    registered, the same certificate verifies, as on a fresh scheme."""
    scheme = directory()
    message = b"before keygen"
    sigs = (SIGNER.sign(0, message), SIGNER.sign(OUTSIDER, message))
    assert not scheme.verify_all(message, sigs)
    assert scheme._quorum_cache
    scheme.keygen(OUTSIDER)
    assert not scheme._quorum_cache
    assert scheme.verify_all(message, sigs) is fresh_verdict(message, sigs, OUTSIDER) is True
