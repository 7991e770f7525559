"""Codec robustness: hostile bytes must fail with CodecError, never leak
struct.error / IndexError / UnicodeDecodeError to the runtime.

The asyncio runtime feeds raw network frames straight into
``decode_message``; a Byzantine peer controls every byte.  These tests
exhaustively truncate, extend and mutate the encoding of every message
type in the wire catalog.
"""

import random
import struct

import pytest

from repro.core.block import create_leaf, genesis_block
from repro.core.codec import (
    I64,
    U8,
    U32,
    CodecError,
    decode_message,
    encode_fields,
    encode_message,
)
from repro.core.mempool import Transaction
from repro.core.messages import BlockProposal, ClientRequest
from repro.runtime.framing import FrameDecoder, encode_frame
from tests.core.test_codec import ALL_MESSAGES, acc, sig, tx

#: Exceptions a hostile frame must never surface.
FORBIDDEN = (struct.error, IndexError, UnicodeDecodeError, KeyError, ValueError)


def _decode_hostile(data):
    """Decode attacker bytes; anything but CodecError or success fails."""
    try:
        decode_message(data)
    except CodecError:
        pass


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_every_strict_prefix_rejected(msg):
    data = encode_message(msg)
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_message(data[:cut])


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_trailing_garbage_rejected(msg):
    data = encode_message(msg)
    for tail in (b"\x00", b"\xff" * 7):
        with pytest.raises(CodecError):
            decode_message(data + tail)


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_single_byte_mutations_never_crash(msg):
    """Flip one byte at a time: clean decode or CodecError, nothing else."""
    data = bytearray(encode_message(msg))
    rng = random.Random(0xC0DEC)
    positions = range(len(data)) if len(data) <= 96 else sorted(
        rng.sample(range(len(data)), 96)
    )
    for pos in positions:
        original = data[pos]
        for flip in (original ^ 0x01, original ^ 0x80, 0xFF):
            data[pos] = flip
            _decode_hostile(bytes(data))
        data[pos] = original


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_random_splices_never_crash(msg):
    """Seeded multi-byte corruption (overwrites, swaps, length bombs)."""
    data = encode_message(msg)
    rng = random.Random(len(data))
    for _ in range(40):
        corrupt = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            start = rng.randrange(len(corrupt))
            span = min(rng.randint(1, 8), len(corrupt) - start)
            corrupt[start : start + span] = rng.randbytes(span)
        _decode_hostile(bytes(corrupt))


def test_pure_garbage_never_crashes():
    rng = random.Random(1337)
    for size in (0, 1, 2, 3, 5, 16, 64, 301):
        for _ in range(25):
            _decode_hostile(rng.randbytes(size))


def test_huge_length_prefix_rejected():
    # A var_bytes length field claiming 4 GiB must not allocate or crash.
    vote = encode_message(ALL_MESSAGES[5])
    bomb = bytearray(vote)
    bomb[-40:-36] = b"\xff\xff\xff\xff"  # inside the signature var_bytes length
    _decode_hostile(bytes(bomb))


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_framed_roundtrip(msg):
    # The path the transport takes: encode, frame, feed, decode.
    framed = encode_frame(encode_message(msg))
    (length,) = struct.unpack_from("<I", framed, 0)
    assert length == len(framed) - 4
    (frame,) = FrameDecoder().feed(framed)
    assert decode_message(frame) == msg


def test_encoder_range_errors_are_codec_errors():
    for kind, value in ((U8, 256), (U32, 1 << 32), (I64, 1 << 63), (U32, -1)):
        with pytest.raises(CodecError):
            encode_fields((kind,), (value,))
    with pytest.raises(CodecError):
        encode_fields((U8, U8), (1,))  # a value short


# -- fused rows ---------------------------------------------------------------

#: A request is one fused struct plus its zero run; a proposal's
#: transactions decode in one loop over their fused heads.
FUSED = [
    ClientRequest(2, Transaction(2, 7, 16, submitted_at=1.5, fee=42)),
    BlockProposal(
        2,
        create_leaf(genesis_block().hash, 2, (tx(11), tx(12, payload=0), tx(13, payload=5))),
        acc(),
        sig(),
    ),
]


@pytest.mark.parametrize("msg", FUSED, ids=lambda m: type(m).__name__)
def test_fused_rows_refuse_every_truncation_and_a_trailing_byte(msg):
    data = encode_message(msg)
    assert decode_message(data) == msg
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_message(data[:cut])
    with pytest.raises(CodecError):
        decode_message(data + b"\x00")
