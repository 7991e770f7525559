"""Tests for the length-prefixed framing layer (pure, no sockets)."""

import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.runtime.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FramingError,
    decode_hello,
    encode_frame,
    encode_hello,
)


def test_round_trip_single_frame():
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(b"hello")) == [b"hello"]
    assert decoder.pending_bytes == 0


def test_round_trip_many_frames_in_one_read():
    payloads = [b"", b"a", b"bb" * 100, bytes(range(256))]
    blob = b"".join(encode_frame(p) for p in payloads)
    assert FrameDecoder().feed(blob) == payloads


def test_byte_at_a_time_reassembly():
    decoder = FrameDecoder()
    frames = []
    for byte in encode_frame(b"dripfeed"):
        frames.extend(decoder.feed(bytes([byte])))
    assert frames == [b"dripfeed"]
    assert decoder.pending_bytes == 0


def test_split_across_arbitrary_boundaries():
    blob = encode_frame(b"first") + encode_frame(b"second")
    for cut in range(1, len(blob)):
        decoder = FrameDecoder()
        frames = decoder.feed(blob[:cut]) + decoder.feed(blob[cut:])
        assert frames == [b"first", b"second"], f"failed at cut {cut}"


def test_oversized_announcement_rejected():
    decoder = FrameDecoder(max_frame_bytes=16)
    with pytest.raises(FramingError):
        decoder.feed(encode_frame(b"x" * 17))


def test_oversized_encode_rejected():
    from repro.runtime.framing import MAX_FRAME_BYTES

    with pytest.raises(FramingError):
        encode_frame(b"x" * (MAX_FRAME_BYTES + 1))


def test_hello_round_trip():
    decoder = FrameDecoder()
    (frame,) = decoder.feed(encode_hello(42))
    assert decode_hello(frame) == 42


def test_bad_hello_rejected():
    with pytest.raises(FramingError):
        decode_hello(b"not a hello at all")
    with pytest.raises(FramingError):
        decode_hello(b"")


def test_pending_bytes_tracks_partial_frame():
    decoder = FrameDecoder()
    partial = encode_frame(b"abcdef")[:-2]
    assert decoder.feed(partial) == []
    assert decoder.pending_bytes == len(partial)


# -- hostile input: malformed hellos ----------------------------------------


def test_hello_wrong_magic_names_the_reason():
    with pytest.raises(FramingError, match="wrong magic"):
        decode_hello(b"xepro-hello\x00" + b"\x01\x00\x00\x00")


def test_hello_truncated_before_pid():
    from repro.runtime.framing import HELLO_MAGIC

    with pytest.raises(FramingError, match="truncated"):
        decode_hello(HELLO_MAGIC + b"\x01\x02")


def test_hello_trailing_bytes_rejected():
    with pytest.raises(FramingError, match="trailing"):
        decode_hello(encode_hello(3)[4:] + b"junk")


def test_hello_oversized_pid_rejected():
    from repro.core.codec import WIRE_VERSION
    from repro.runtime.framing import HELLO_MAGIC, MAX_HELLO_PID
    import struct

    version = struct.pack("<I", WIRE_VERSION)
    payload = HELLO_MAGIC + struct.pack("<I", MAX_HELLO_PID + 1) + version
    with pytest.raises(FramingError, match="exceeds"):
        decode_hello(payload)
    # The bound itself is admitted.
    bounded = HELLO_MAGIC + struct.pack("<I", MAX_HELLO_PID) + version
    assert decode_hello(bounded) == MAX_HELLO_PID


def test_hello_version_1_peer_rejected():
    """The pre-version hello layout (magic + pid) is refused by name."""
    from repro.runtime.framing import HELLO_MAGIC
    import struct

    with pytest.raises(FramingError, match="wire version 1"):
        decode_hello(HELLO_MAGIC + struct.pack("<I", 3))


def test_hello_mismatched_version_rejected():
    from repro.core.codec import WIRE_VERSION
    from repro.runtime.framing import HELLO_MAGIC
    import struct

    payload = HELLO_MAGIC + struct.pack("<I", 3) + struct.pack("<I", WIRE_VERSION + 1)
    with pytest.raises(FramingError, match="wire version"):
        decode_hello(payload)


def test_poisoned_decoder_stays_rejected():
    decoder = FrameDecoder(max_frame_bytes=8)
    with pytest.raises(FramingError):
        decoder.feed(encode_frame(b"x" * 9))
    # Even innocent bytes are refused: the stream's boundaries are gone.
    with pytest.raises(FramingError, match="already rejected"):
        decoder.feed(encode_frame(b"ok"))


def test_feed_is_linear_in_frames_per_chunk():
    """Ten times the frames in one chunk cost about ten times the time.

    A 64 KiB read of minimal frames holds ~1 700 of them.  ``feed`` walks
    their offsets and drops the consumed prefix once per call; a decoder
    that shifted its buffer once per frame would pay ~100x here.  The
    ceiling is generous (30x) because the box is shared.
    """

    def best_feed_s(count):
        chunk = encode_frame(b"x" * 34) * count
        best = float("inf")
        for _ in range(5):
            decoder = FrameDecoder()
            started = time.perf_counter()
            frames = decoder.feed(chunk)
            best = min(best, time.perf_counter() - started)
            assert len(frames) == count and decoder.pending_bytes == 0
        return best

    assert best_feed_s(5_000) <= 30 * best_feed_s(500)


#: Child program behind the linear-time test: the best feed time of each
#: frame size, in seconds, the two sizes' repetitions alternating.
_SPREAD_FRAME_TIMES = """
import time
from repro.runtime.framing import MAX_FRAME_BYTES, FrameDecoder, encode_frame

reads = {}
for size in (MAX_FRAME_BYTES, MAX_FRAME_BYTES // 10):
    frame = encode_frame(bytes(size))
    reads[size] = [frame[i : i + 4096] for i in range(0, len(frame), 4096)]
best = dict.fromkeys(reads, float("inf"))
for _ in range(3):
    for size, chunks in reads.items():
        decoder = FrameDecoder()
        started = time.perf_counter()
        frames = [f for data in chunks for f in decoder.feed(data)]
        best[size] = min(best[size], time.perf_counter() - started)
        assert frames == [bytes(size)] and decoder.pending_bytes == 0
print(*best.values())
"""


def test_a_frame_spread_over_many_reads_costs_linear_time():
    """While a frame is still short a read only appends to the buffer: it
    is not copied out again per read, which would make a 4 MiB frame in
    4 KiB reads cost ~100x a 400 KiB one instead of ~10x.

    The two sizes' repetitions alternate, so a burst of load on a shared
    box slows both of them.  They are timed in a fresh interpreter: inside
    a long test session the allocator's history decides whether a growing
    buffer is extended in place or copied on each growth, and that alone
    moved this ratio from ~10x to 34x with the decoder unchanged.
    """
    path = [str(pathlib.Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(part for part in path if part)}
    done = subprocess.run(  # noqa: S603 - this interpreter, a fixed program
        [sys.executable, "-c", _SPREAD_FRAME_TIMES],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    big_s, small_s = (float(word) for word in done.stdout.split())
    assert big_s <= 30 * small_s


def test_frames_before_a_poisoning_announcement_are_consumed():
    """The oversize announcement poisons at once; what preceded it is gone."""
    decoder = FrameDecoder(max_frame_bytes=8)
    with pytest.raises(FramingError, match="9-byte frame"):
        decoder.feed(encode_frame(b"ok") + encode_frame(b"x" * 9))
    assert decoder.pending_bytes == 4 + 9


# -- decoder fuzz: seeded random chunking and garbage -----------------------


def test_fuzz_random_chunk_boundaries_never_corrupt_frames():
    """Any chunking of a valid stream yields exactly the original frames."""
    from repro.core.rng import RngStream

    rng = RngStream(1234, "framing-fuzz:chunks")
    payloads = [bytes([rng.randint(0, 255)] * rng.randint(0, 300)) for _ in range(40)]
    blob = b"".join(encode_frame(p) for p in payloads)
    for _ in range(25):
        decoder = FrameDecoder()
        out = []
        index = 0
        while index < len(blob):
            step = rng.randint(1, 97)
            out.extend(decoder.feed(blob[index : index + step]))
            index += step
        assert out == payloads
        assert decoder.pending_bytes == 0


def test_fuzz_garbage_streams_never_yield_oversized_buffers():
    """Random garbage either parses as small frames or poisons the decoder.

    Whatever bytes a hostile peer sends, the decoder must never buffer
    more than one length prefix + cap worth of data - the memory-bound
    guarantee behind the max-frame-size disconnect.
    """
    from repro.core.rng import RngStream

    rng = RngStream(99, "framing-fuzz:garbage")
    cap = 1024
    for round_no in range(50):
        decoder = FrameDecoder(max_frame_bytes=cap)
        try:
            for _ in range(20):
                chunk = bytes(rng.randint(0, 255) for _ in range(rng.randint(1, 200)))
                for frame in decoder.feed(chunk):
                    assert len(frame) <= cap
                assert decoder.pending_bytes <= cap + 4
        except FramingError:
            # Poisoned: every further feed must keep refusing.
            with pytest.raises(FramingError):
                decoder.feed(b"\x00")
