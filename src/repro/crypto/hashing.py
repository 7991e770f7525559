"""Hashing and canonical field encoding.

Commitments, accumulators and blocks are signed over tuples of
heterogeneous fields (hash values, view numbers, phase tags, the bottom
symbol...).  ``encode_fields`` defines one canonical, prefix-free byte
encoding for such tuples so that signatures are well-defined and two
different field tuples can never encode to the same bytes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from typing import Any

#: SHA-256 digest size; the paper assumes 32-byte block hashes.
HASH_SIZE = 32

#: Type alias used across the library for 32-byte digests.
Hash = bytes


def sha256(data: bytes) -> Hash:
    """Plain SHA-256."""
    return hashlib.sha256(data).digest()


# Tags make the encoding prefix-free across types.
_TAG_NONE = b"\x00"
_TAG_INT = b"\x01"
_TAG_BYTES = b"\x02"
_TAG_STR = b"\x03"
_TAG_SEQ = b"\x04"
_TAG_BOOL = b"\x05"


def encode_fields(fields: tuple[Any, ...] | list[Any]) -> bytes:
    """Canonically encode a tuple of fields to bytes.

    Supported field types: ``None`` (the paper's bottom symbol), ``bool``,
    ``int``, ``bytes``, ``str`` and nested sequences thereof.  Each value is
    length-prefixed so the encoding is injective.  One flat pass: nested
    sequences are written into the same buffer, and integers - all a
    block's payload digest holds - without a call of their own.

    A sequence is exactly a ``tuple`` or a ``list``.  A tuple *record*
    (a ``NamedTuple`` such as a transaction) is a ``TypeError`` like any
    other object, never silently hashed as the list of its fields.
    """
    if type(fields) is not tuple and type(fields) is not list:
        raise TypeError(f"cannot canonically encode {type(fields).__name__}")
    parts: list[bytes] = []
    _put_seq(parts.append, fields)
    return b"".join(parts)


def _encode_int(value: int) -> bytes:
    raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    return _TAG_INT + len(raw).to_bytes(4, "big") + raw


#: ``_TAG_INT`` and the 4-byte length of an integer of ``n`` bytes, by ``n``.
_INT_HEADS = tuple(_TAG_INT + n.to_bytes(4, "big") for n in range(17))
#: The whole encoding of each integer from -1 (the synthetic filler's
#: client id) to 255: ids, sizes and fees mostly come from here.
_SMALL_INTS = tuple(_encode_int(value) for value in range(-1, 256))
#: ``_TAG_SEQ`` and the 4-byte length of a sequence of ``n`` values, by ``n``.
_SEQ_HEADS = tuple(_TAG_SEQ + n.to_bytes(4, "big") for n in range(64))


def _put_seq(put: Callable[[bytes], object], values: tuple[Any, ...] | list[Any]) -> None:
    n = len(values)
    put(_SEQ_HEADS[n] if n < 64 else _TAG_SEQ + n.to_bytes(4, "big"))
    for value in values:
        if type(value) is int:  # exactly int: a bool takes the tagged path
            if -1 <= value < 256:
                put(_SMALL_INTS[value + 1])
                continue
            size = (value.bit_length() + 8) >> 3
            put(_INT_HEADS[size] if size < 17 else _TAG_INT + size.to_bytes(4, "big"))
            # At this size a non-negative value's top bit is clear, so its
            # unsigned bytes are its signed ones (and cost half as much).
            signed = value < 0
            put(value.to_bytes(size, "big", signed=True) if signed else value.to_bytes(size, "big"))
        elif type(value) is tuple or type(value) is list:
            _put_seq(put, value)
        else:
            put(_encode_one(value))


def _encode_one(value: Any) -> bytes:
    if value is None:
        return _TAG_NONE
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return _TAG_BOOL + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return _encode_int(value)
    if isinstance(value, bytes):
        return _TAG_BYTES + len(value).to_bytes(4, "big") + value
    if isinstance(value, str):
        raw = value.encode()
        return _TAG_STR + len(raw).to_bytes(4, "big") + raw
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


def hash_fields(fields: tuple[Any, ...] | list[Any]) -> Hash:
    """SHA-256 of the canonical encoding of ``fields``."""
    return sha256(encode_fields(fields))


def hash_block_fields(
    parent_hash: Hash, view: int, payload_digest: Hash, extra: tuple[Any, ...] = ()
) -> Hash:
    """Hash value of a block from its identifying fields.

    Blocks "store the hash values of the blocks they extend" (Section 5),
    so the parent hash is part of the preimage, which is what makes the
    extension relation checkable.
    """
    return hash_fields(("block", parent_hash, view, payload_digest, extra))
