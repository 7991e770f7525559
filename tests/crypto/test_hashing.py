"""Tests for hashing and canonical field encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mempool import Transaction
from repro.core.messages import ClientReply, ClientRequest
from repro.crypto.hashing import (
    HASH_SIZE,
    encode_fields,
    hash_block_fields,
    hash_fields,
    sha256,
)


def test_sha256_size_and_stability():
    digest = sha256(b"hello")
    assert len(digest) == HASH_SIZE
    assert digest == sha256(b"hello")
    assert digest != sha256(b"hello!")


def test_encode_distinguishes_types():
    # The same surface value under different types must encode differently.
    assert encode_fields((1,)) != encode_fields(("1",))
    assert encode_fields((b"1",)) != encode_fields(("1",))
    assert encode_fields((True,)) != encode_fields((1,))
    assert encode_fields((None,)) != encode_fields((0,))
    assert encode_fields((None,)) != encode_fields((b"",))


def test_encode_distinguishes_boundaries():
    # Concatenation attacks: ("ab","c") must differ from ("a","bc").
    assert encode_fields(("ab", "c")) != encode_fields(("a", "bc"))
    assert encode_fields((b"ab", b"c")) != encode_fields((b"a", b"bc"))


def test_encode_distinguishes_arity():
    assert encode_fields(()) != encode_fields((None,))
    assert encode_fields((1, 2)) != encode_fields((1, 2, None))


def test_encode_negative_ints():
    assert encode_fields((-1,)) != encode_fields((1,))
    assert encode_fields((-1,)) != encode_fields((255,))


def test_encode_nested_sequences():
    assert encode_fields(((1, 2), 3)) != encode_fields((1, (2, 3)))
    assert encode_fields(([1, 2],)) == encode_fields(((1, 2),))


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode_fields((object(),))


def test_tuple_records_are_not_sequences():
    # A record handed to the hasher by mistake fails loudly, as a
    # dataclass does, instead of hashing as the list of its fields.
    tx = Transaction(1, 2, 0)
    request = ClientRequest(1, tx)
    reply = ClientReply(0, 1, 2, 0.0)
    for record in (tx, request, reply):
        with pytest.raises(TypeError):
            hash_fields((record,))
        with pytest.raises(TypeError):
            encode_fields(record)


def test_hash_fields_stable():
    fields = ("commit", b"\x01" * 32, 5, None, "prep_p")
    assert hash_fields(fields) == hash_fields(fields)
    assert len(hash_fields(fields)) == HASH_SIZE


def test_hash_block_fields_depends_on_parent():
    payload = sha256(b"payload")
    h1 = hash_block_fields(b"\x00" * 32, 1, payload)
    h2 = hash_block_fields(b"\x01" * 32, 1, payload)
    assert h1 != h2


def test_hash_block_fields_depends_on_view():
    payload = sha256(b"payload")
    parent = b"\x00" * 32
    assert hash_block_fields(parent, 1, payload) != hash_block_fields(parent, 2, payload)


def spec_encoding(value):
    """The documented encoding, one value at a time and recursively."""
    if value is None:
        return b"\x00"
    if isinstance(value, bool):
        return b"\x05" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        return b"\x01" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, bytes):
        return b"\x02" + len(value).to_bytes(4, "big") + value
    if isinstance(value, str):
        return b"\x03" + len(value.encode()).to_bytes(4, "big") + value.encode()
    return b"\x04" + len(value).to_bytes(4, "big") + b"".join(map(spec_encoding, value))


_FIELDS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**60, 2**200).map(lambda v: -v)
    | st.binary(max_size=8) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=20,
)


@given(fields=st.lists(_FIELDS, max_size=5).map(tuple))
@settings(max_examples=200, deadline=None)
def test_the_flat_pass_writes_the_documented_encoding(fields):
    assert encode_fields(fields) == spec_encoding(fields)
    assert hash_fields(fields) == sha256(spec_encoding(fields))
