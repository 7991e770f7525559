"""Length-prefixed framing for protocol messages on a byte stream.

TCP gives a byte stream; the wire codec (:mod:`repro.core.codec`) gives
message bytes.  This module glues them: every message travels as a
``u32-le`` length prefix followed by that many payload bytes, and the
first frame of every connection is a *hello* identifying the sender's
pid (consensus messages carry signatures, but the transport needs an
address book entry before the first message is parsed).

Pure and I/O-free by design - :class:`FrameDecoder` is fed bytes and
yields frames - so it is unit-testable without sockets and reusable by
any transport.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.codec import WIRE_VERSION, CodecError, decode_fields, encode_fields
from repro.errors import ProtocolError

#: Frames above this size are treated as a protocol violation (a byzantine
#: peer must not be able to make us buffer unbounded memory).
MAX_FRAME_BYTES = 4 * 1024 * 1024

_LEN = struct.Struct("<I")
#: Bytes of the length prefix before each frame's payload.
FRAME_PREFIX_BYTES = _LEN.size

#: First-frame payload prefix identifying a peer connection.
HELLO_MAGIC = b"repro-hello\x00"

#: Hello pids above this bound are treated as hostile input: real
#: deployments number replicas densely from zero, so an id like 2**31
#: can only come from garbage or an attack, and admitting it would let a
#: stranger key unbounded per-peer state.
MAX_HELLO_PID = 1 << 20


class FramingError(ProtocolError):
    """Malformed framing on a connection (oversized or bad hello)."""


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length prefix."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FramingError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(payload)) + payload


@dataclass(frozen=True)
class Hello:
    """The first frame's row (after :data:`HELLO_MAGIC`): the sender's pid
    and the codec generation it will speak."""

    pid: int
    version: int


def encode_hello(pid: int) -> bytes:
    """The hello frame a connecting peer sends first: magic + pid + version.

    The trailing :data:`~repro.core.codec.WIRE_VERSION` word is the codec
    generation the sender will speak; a receiver on a different
    generation refuses the connection at the hello instead of misparsing
    consensus frames mid-stream.
    """
    return encode_frame(HELLO_MAGIC + encode_fields((Hello,), (Hello(pid, WIRE_VERSION),)))


def decode_hello(payload: bytes, max_pid: int = MAX_HELLO_PID) -> int:
    """Parse a hello frame payload; returns the sender pid.

    Rejects, with a :class:`FramingError` naming the reason, every
    malformed shape a hostile or confused peer can present: wrong magic,
    truncated payload, trailing bytes, out-of-range sender ids, and
    mismatched wire versions (including version-1 peers, whose hello
    predates the version word entirely).
    """
    if not payload.startswith(HELLO_MAGIC):
        raise FramingError("hello frame has wrong magic")
    body = payload[len(HELLO_MAGIC) :]
    if len(body) == _LEN.size:
        # The version-1 hello layout: magic + pid, no version word.
        raise FramingError(
            f"peer speaks wire version 1 (pre-version hello); "
            f"this build requires {WIRE_VERSION}"
        )
    try:
        (hello,) = decode_fields((Hello,), body)
    except CodecError as exc:
        raise FramingError(f"hello frame: {exc}") from exc
    if hello.version != WIRE_VERSION:
        raise FramingError(
            f"peer speaks wire version {hello.version}; this build requires {WIRE_VERSION}"
        )
    if hello.pid > max_pid:
        raise FramingError(f"hello pid {hello.pid} exceeds the bound {max_pid}")
    return int(hello.pid)


class FrameDecoder:
    """Incremental frame parser: feed bytes in, take whole frames out."""

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every frame completed by it, in order.

        Raises :class:`FramingError` the moment a peer announces a frame
        above the cap - before buffering any of its payload - and stays
        poisoned afterwards: a stream that lied about one length prefix
        has no trustworthy frame boundaries left.
        """
        if self._poisoned:
            raise FramingError("decoder already rejected this stream")
        buffer = self._buffer
        buffer += data
        frames: list[bytes] = []
        end, pos = len(buffer), 0  # pos: start of the first frame not yet taken
        try:
            while end - pos >= _LEN.size:
                (length,) = _LEN.unpack_from(buffer, pos)
                if length > self.max_frame_bytes:
                    self._poisoned = True
                    raise FramingError(
                        f"peer announced a {length}-byte frame (cap {self.max_frame_bytes})"
                    )
                start = pos + _LEN.size
                if end - start < length:
                    break
                pos = start + length
                frames.append(bytes(buffer[start:pos]))
        finally:
            # The consumed prefix goes once per call, not once per frame.
            # Frames before a poisoning announcement are consumed all the same.
            del buffer[:pos]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)
