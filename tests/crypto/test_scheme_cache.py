"""The verification memo: bounded without a latency cliff, and never an
answer other than the one ``verify`` / ``verify_many`` give beneath it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.scheme as scheme_mod
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.scheme import Signature
from repro.crypto.schnorr import GROUP_TEST, SchnorrScheme


@pytest.fixture
def scheme():
    s = HmacScheme(secret=b"cache-test")
    s.keygen(1)
    return s


def fill(scheme, count, start=0):
    pairs = []
    for i in range(start, start + count):
        message = f"msg-{i}".encode()
        sig = scheme.sign(1, message)
        scheme.verify_cached(message, sig)
        pairs.append((message, sig))
    return pairs


def test_eviction_drops_oldest_half_not_everything(scheme, monkeypatch):
    monkeypatch.setattr(scheme_mod, "_VERIFY_CACHE_MAX", 8)
    old = fill(scheme, 8)
    assert len(scheme._verify_cache) == 8
    # The 9th entry triggers eviction of the *oldest half* only - the
    # regression was a full clear(), which made the next quorum
    # certificate re-verify every signature at once.
    extra = fill(scheme, 1, start=8)
    assert len(scheme._verify_cache) == 5  # 4 survivors + the new entry
    for message, sig in old[:4]:
        assert scheme.cached_verification(message, sig) is None
    for message, sig in old[4:]:
        assert scheme.cached_verification(message, sig) is True
    assert scheme.cached_verification(*extra[0]) is True


def test_eviction_preserves_correctness(scheme, monkeypatch):
    monkeypatch.setattr(scheme_mod, "_VERIFY_CACHE_MAX", 4)
    pairs = fill(scheme, 20)  # many evictions along the way
    for message, sig in pairs:
        assert scheme.verify_cached(message, sig)  # recomputed if evicted
    assert len(scheme._verify_cache) <= 4 + 1


def test_cache_never_exceeds_cap_plus_one(scheme, monkeypatch):
    monkeypatch.setattr(scheme_mod, "_VERIFY_CACHE_MAX", 6)
    for i in range(50):
        message = f"bulk-{i}".encode()
        scheme.verify_cached(message, scheme.sign(1, message))
        assert len(scheme._verify_cache) <= 7


def test_keygen_invalidates_memo(scheme):
    message = b"before-keygen"
    sig = scheme.sign(1, message)
    scheme.verify_cached(message, sig)
    assert scheme.cached_verification(message, sig) is True
    scheme.keygen(2)
    assert scheme.cached_verification(message, sig) is None


# -- the memo against the pure function beneath it ------------------------------

# Keygen and eviction empty the memo under every pair set up before them, so
# in a batch that mixes the states those two come first.
MEMO_STATES = ["after-keygen", "evicted", "miss", "hit", "bad", "remembered-bad"]


def make_scheme(kind):
    s = HmacScheme(secret=b"reference") if kind == "hmac" else SchnorrScheme(GROUP_TEST)
    s.keygen(1)
    return s


@pytest.fixture(params=["hmac", "schnorr"])
def any_scheme(request):
    return make_scheme(request.param)


def corrupted(sig):
    return Signature(sig.signer, sig.data[:-1] + bytes((sig.data[-1] ^ 1,)), sig.scheme)


def pair_in_state(scheme, state, label=b"reference", new_signer=2):
    """A ``(message, signature)`` pair with the memo brought into ``state``
    (``new_signer``: whom "after-keygen" registers; a known one changes nothing)."""
    message = label + b"/" + state.encode()
    sig = scheme.sign(1, message)
    if state in ("bad", "remembered-bad"):
        sig = corrupted(sig)
    if state in ("hit", "remembered-bad", "evicted", "after-keygen"):
        scheme.verify_cached(message, sig)
        assert scheme.cached_verification(message, sig) is (state != "remembered-bad")
    if state == "evicted":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scheme_mod, "_VERIFY_CACHE_MAX", 4)
            fill(scheme, 8, start=1000)
    elif state == "after-keygen":
        scheme.keygen(new_signer)
    if state in ("miss", "bad", "evicted", "after-keygen"):
        assert scheme.cached_verification(message, sig) is None
    return message, sig


@pytest.mark.parametrize("state", MEMO_STATES)
def test_verify_cached_is_verify(any_scheme, state):
    message, sig = pair_in_state(any_scheme, state)
    expected = any_scheme.verify(message, sig)
    assert expected is (state not in ("bad", "remembered-bad"))
    assert any_scheme.verify_cached(message, sig) is expected
    assert any_scheme.verify_cached(message, sig) is expected  # now a hit: still
    assert any_scheme.cached_verification(message, sig) is expected


@pytest.mark.parametrize("state", [*MEMO_STATES, "mixed"])
def test_verify_many_cached_is_verify_many(any_scheme, state):
    pairs = [
        pair_in_state(any_scheme, each, label=f"many-{i}".encode(), new_signer=2 + i)
        for i, each in enumerate(MEMO_STATES if state == "mixed" else [state] * 5)
    ]
    expected = any_scheme.verify_many(pairs)
    assert any_scheme.verify_many_cached(pairs) == expected
    assert any_scheme.verify_many_cached(pairs) == expected  # all hits now
    assert [any_scheme.cached_verification(*pair) for pair in pairs] == expected


#: One memoising call: which entry point, over which message, with
#: (signer, corrupt?) signatures.  Signer 2 is registered by the test, signer
#: 3 never is.
MEMO_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["verify_cached", "verify_many_cached", "verify_all"]),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=4),
    ),
    max_size=8,
)


@pytest.mark.parametrize("kind", ["hmac", "schnorr"])
@settings(max_examples=40, deadline=None)
@given(calls=MEMO_CALLS)
def test_memo_holds_only_what_the_scheme_itself_computed(kind, calls):
    """No entry point takes a verdict from outside (``prime_verification`` and
    ``replication_spec`` are gone), so whatever mix of memoising calls ran,
    every remembered outcome is ``verify`` of its own key."""
    scheme = make_scheme(kind)
    scheme.keygen(2)
    for gone in ("prime_verification", "replication_spec"):
        assert not hasattr(scheme, gone)
    for method, index, signers in calls:
        message = f"memo-{index}".encode()
        sigs = []
        for signer, corrupt in signers:
            sig = scheme.sign(min(signer, 2), message)
            sig = Signature(signer, sig.data, sig.scheme)
            sigs.append(corrupted(sig) if corrupt else sig)
        if method == "verify_cached":
            for sig in sigs:
                scheme.verify_cached(message, sig)
        elif method == "verify_many_cached":
            scheme.verify_many_cached([(message, sig) for sig in sigs])
        else:
            scheme.verify_all(message, sigs)
    for (signer, message, data), outcome in scheme._verify_cache.items():
        assert outcome is scheme.verify(message, Signature(signer, data, scheme.name))
