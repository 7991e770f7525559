"""Byte-level wire codec for all protocol messages, driven by one table.

The simulator never *needs* serialized bytes (payloads travel as Python
objects), but a production system does, and the byte accounting the
benchmarks rely on should be honest.  The test suite round-trips every
message, pins the bytes against golden vectors and checks that the
declared ``wire_size()`` tracks the real encoded length.

Format: little-endian fixed-width integers, length-prefixed variable
fields, one leading type tag per message.  Transaction payloads are
zero-filled to their declared size (their content is abstract, Section 5,
but their bytes must exist on a real wire).

:func:`wire_table` declares each wire type once - field name and wire
kind, in wire order.  First use compiles every row into a *plan*: each
run of consecutive fixed-width fields becomes one precompiled
:class:`struct.Struct` (a single ``pack`` / ``unpack_from`` for the whole
run), every other field one step, and the encoder and the decoder of a
type are both derived from the same row, so they cannot drift apart.
Nothing outside the table knows a message's shape.

The same table is the byte format of the seal store's files:
:func:`encode_record` writes one durable record (a sealed checker
snapshot, the seal-counter record, a certified checkpoint) behind a
magic, ``WIRE_VERSION`` and a kind byte, and :func:`encode_fields` a bare
run of kinds (the fields a Checker declares ``SEALED``).

Every malformed-input failure surfaces as :class:`CodecError`;
``struct.error`` / ``IndexError`` / ``UnicodeDecodeError`` never escape
this module - a value out of range for its field included.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, NamedTuple, Union

from repro.crypto.hashing import HASH_SIZE, Hash
from repro.crypto.scheme import Signature
from repro.errors import ProtocolError
from repro.core import messages as m
from repro.core.block import Block
from repro.core.certificate import Accumulator, QuorumCert
from repro.core.commitment import Commitment
from repro.core.mempool import AdmissionVerdict, Transaction
from repro.core.phases import Phase, Step

#: Wire-format generation.  Version 2 added the transaction ``fee``
#: field and the admission verdict byte in client replies; peers
#: announce their version in the connection hello
#: (:mod:`repro.runtime.framing`) and mismatched generations are
#: refused at connect time rather than misparsed mid-stream.
WIRE_VERSION = 2


class CodecError(ProtocolError):
    """Malformed bytes on the wire."""


# -- wire kinds: what a table row may say about a field, and its plan ----------

#: Sink for encoded chunks (``list.append`` / ``bytearray.extend``).
Put = Callable[[bytes], object]
#: A plan is ``encode(value, put)`` and ``decode(buf, pos, out) -> next pos``:
#: one value of a kind written and read back onto ``out`` - or, as one step
#: of a row, the fields it covers of the object it is handed.
Enc = Callable[[Any, Put], None]
Dec = Callable[[bytes, int, list[Any]], int]
Plan = tuple[Enc, Dec]

_COUNT = struct.Struct("<I")
_ABSENT, _PRESENT = b"\x00", b"\x01"
_TRUNCATED = "truncated message"


def _flag(buf: bytes, pos: int) -> int:
    if pos >= len(buf):
        raise CodecError(_TRUNCATED)
    return buf[pos]


@dataclass(frozen=True)
class Fixed:
    """A fixed-width scalar: one ``struct`` format code, fusable into a run;
    ``to_wire`` checks or converts a value to pack, ``from_wire`` one unpacked."""

    fmt: str
    to_wire: Callable[[Any], Any] | None = None
    from_wire: Callable[[Any], Any] | None = None

    def plan(self) -> Plan:
        return _run([self], lambda value: value)


def _run(kinds: list[Fixed], get: Callable[[Any], Any]) -> Plan:
    """One ``struct`` call each way for a run of consecutive fixed-width fields;
    ``get`` takes their values off the object (a bare value for a single field)."""
    packer = struct.Struct("<" + "".join(kind.fmt for kind in kinds))
    pack, unpack_from, size = packer.pack, packer.unpack_from, packer.size
    single = len(kinds) == 1
    outs = [(i, kind.to_wire) for i, kind in enumerate(kinds) if kind.to_wire]
    ins = [(i, kind.from_wire) for i, kind in enumerate(kinds) if kind.from_wire]

    def enc(obj: Any, put: Put) -> None:
        values = [get(obj)] if single else list(get(obj))
        for i, convert in outs:
            values[i] = convert(values[i])
        put(pack(*values))

    def dec(buf: bytes, pos: int, out: list[Any]) -> int:
        values = list(unpack_from(buf, pos))
        for i, convert in ins:
            values[i] = convert(values[i])
        out += values
        return pos + size

    return enc, dec


@dataclass(frozen=True)
class Var:
    """A ``u32`` length, then that many bytes (``text``: a string as UTF-8)."""

    text: bool

    def plan(self) -> Plan:
        text = self.text

        def enc(value: Any, put: Put) -> None:
            data = value.encode() if text else value
            put(_COUNT.pack(len(data)))
            put(data)

        def dec(buf: bytes, pos: int, out: list[Any]) -> int:
            start = pos + 4
            end = start + _COUNT.unpack_from(buf, pos)[0]
            if end > len(buf):
                raise CodecError(_TRUNCATED)
            try:
                out.append(buf[start:end].decode() if text else buf[start:end])
            except UnicodeDecodeError as exc:
                raise CodecError("invalid utf-8 in string field") from exc
            return end

        return enc, dec


@dataclass(frozen=True)
class Seq:
    """A ``u32`` count, then that many items of one kind; decodes to a tuple."""

    item: Kind

    def plan(self) -> Plan:
        enc_item, dec_item = _compile(self.item)

        def enc(items: Any, put: Put) -> None:
            put(_COUNT.pack(len(items)))
            for item in items:
                enc_item(item, put)

        def dec(buf: bytes, pos: int, out: list[Any]) -> int:
            items: list[Any] = []
            (count,) = _COUNT.unpack_from(buf, pos)
            pos += 4
            for _ in range(count):
                pos = dec_item(buf, pos, items)
            out.append(tuple(items))
            return pos

        return enc, dec


@dataclass(frozen=True)
class Opt:
    """A presence byte, then the value unless it is ``None``."""

    item: Kind

    def plan(self) -> Plan:
        enc_item, dec_item = _compile(self.item)

        def enc(value: Any, put: Put) -> None:
            if value is None:
                put(_ABSENT)
            else:
                put(_PRESENT)
                enc_item(value, put)

        def dec(buf: bytes, pos: int, out: list[Any]) -> int:
            if _flag(buf, pos):
                return dec_item(buf, pos + 1, out)
            out.append(None)
            return pos + 1

        return enc, dec


@dataclass(frozen=True)
class OneOf:
    """A tag byte naming the value's class (``None``: nothing follows)."""

    classes: tuple[type[Any] | None, ...]

    def plan(self) -> Plan:
        plans = [None if cls is None else _compile(cls) for cls in self.classes]
        tags = {cls or type(None): tag for tag, cls in enumerate(self.classes)}

        def enc(value: Any, put: Put) -> None:
            tag = tags.get(type(value))
            if tag is None:
                raise CodecError(f"no tag for a {type(value).__name__} here")
            put(bytes((tag,)))
            plan = plans[tag]
            if plan is not None:
                plan[0](value, put)

        def dec(buf: bytes, pos: int, out: list[Any]) -> int:
            tag = _flag(buf, pos)
            if tag >= len(plans):
                raise CodecError(f"unknown class tag {tag}")
            plan = plans[tag]
            if plan is not None:
                return plan[1](buf, pos + 1, out)
            out.append(None)
            return pos + 1

        return enc, dec


@dataclass(frozen=True)
class Zeros:
    """Row entry without a value: as many zero bytes as field ``count`` says."""

    count: str

    def step(self, count_at: int) -> Plan:
        """``count_at``: where among the row's decoded values the count sits."""
        get = attrgetter(self.count)

        def enc(obj: Any, put: Put) -> None:
            put(bytes(get(obj)))

        def dec(buf: bytes, pos: int, out: list[Any]) -> int:
            pos += out[count_at]
            if pos > len(buf):
                raise CodecError(_TRUNCATED)
            return pos

        return enc, dec


@dataclass(frozen=True)
class Either:
    """Row entry for two attributes of which exactly one is set.

    A presence byte for ``name``; when it is clear, ``other`` follows in
    its place.  Decodes to both attributes, the absent one ``None``.
    """

    name: str
    kind: Kind
    other: str
    other_kind: Kind

    def step(self) -> Plan:
        get, get_other = attrgetter(self.name), attrgetter(self.other)
        enc_one, dec_one = _compile(self.kind)
        enc_other, dec_other = _compile(self.other_kind)

        def enc(obj: Any, put: Put) -> None:
            value = get(obj)
            if value is not None:
                put(_PRESENT)
                enc_one(value, put)
            else:
                put(_ABSENT)
                enc_other(get_other(obj), put)

        def dec(buf: bytes, pos: int, out: list[Any]) -> int:
            if _flag(buf, pos):
                pos = dec_one(buf, pos + 1, out)
                out.append(None)
                return pos
            out.append(None)
            return dec_other(buf, pos + 1, out)

        return enc, dec


#: A value's wire kind; a class stands for its own row of the table.
Kind = Union[Fixed, Var, Seq, Opt, OneOf, type]
#: One entry of a row: a named field, or one of the two pseudo-fields.
Entry = Union[tuple[str, Kind], Zeros, Either]


def _hash32(value: Hash) -> Hash:
    # ``32s`` would silently pad or cut a hash of another length.
    if len(value) != HASH_SIZE:
        raise CodecError(f"hash must be {HASH_SIZE} bytes")
    return value


def _tagged(enum: type[Any], what: str) -> Fixed:
    """An enum on the wire: the member's position, in one byte."""
    members = list(enum)

    def from_wire(tag: int) -> Any:
        if tag >= len(members):
            raise CodecError(f"unknown {what} {tag}")
        return members[tag]

    return Fixed("B", members.index, from_wire)


U8, U32, I64, F64 = Fixed("B"), Fixed("I"), Fixed("q"), Fixed("d")
BOOL = Fixed("B", bool, bool)
HASH = Fixed(f"{HASH_SIZE}s", _hash32)
PHASE = _tagged(Phase, "phase tag")
VERDICT = _tagged(AdmissionVerdict, "admission verdict")
BYTES, STR = Var(text=False), Var(text=True)


class Layout(NamedTuple):
    """One row of the wire table: ``tag`` is a registered message's leading type
    byte (``None``: only travels inside one)."""

    cls: type[Any]
    tag: int | None
    entries: tuple[Entry, ...]


@functools.cache
def wire_table() -> tuple[Layout, ...]:
    """Every wire type: its fields and their kinds, in wire order.

    Tags and field order *are* wire version 2 (``tests/core/golden_wire_v2.json``
    pins the bytes).  A function, run once, only because the modules that
    own seven of its classes import this one."""
    from repro.protocols.chained_damysus import ChainedVote
    from repro.protocols.fast_hotstuff import FastProposal
    from repro.protocols.sync import SyncBlocks, SyncCheckpoint, SyncRequest
    from repro.tee.checkpoint import Checkpoint
    from repro.tee.sealed import SealCounter, SealedState

    def row(cls: type[Any], tag: int | None, *entries: Entry) -> Layout:
        return Layout(cls, tag, entries)

    view = ("view", I64)
    return (
        row(Signature, None, ("signer", I64), ("data", BYTES), ("scheme", STR)),
        row(Transaction, None, ("client_id", I64), ("tx_id", I64), ("payload_bytes", U32),
            ("submitted_at", F64), ("fee", I64), Zeros("payload_bytes")),
        row(QuorumCert, None, view, ("block_hash", HASH), ("phase", PHASE),
            ("is_genesis", BOOL), ("sigs", Seq(Signature))),
        row(Accumulator, None, ("made_in_view", I64), ("prep_view", I64), ("prep_hash", HASH),
            ("signature", Signature), Either("count", U32, "ids", Seq(I64))),
        row(Commitment, None, ("h_prep", Opt(HASH)), ("v_prep", I64), ("h_just", Opt(HASH)),
            ("v_just", Opt(I64)), ("phase", PHASE), ("sigs", Seq(Signature))),
        row(Block, None, ("parent_hash", HASH), view, ("is_genesis", BOOL),
            ("is_blank", BOOL), ("created_at", F64), ("transactions", Seq(Transaction)),
            ("justify", OneOf((None, QuorumCert, Accumulator, Commitment)))),
        row(Checkpoint, None, ("replica", I64), ("counter", I64), ("height", I64), view,
            ("block_hash", HASH), ("state_root", HASH), ("qc", Commitment),
            ("signature", Signature)),
        row(Step, None, view, ("phase", PHASE)),
        row(SealedState, None, ("component_id", I64), ("seal_counter", I64), ("payload", BYTES),
            ("mac", BYTES)),
        row(SealCounter, None, ("component_id", I64), ("latest", I64)),
        row(m.NewViewMsg, 0, view, ("justify", QuorumCert)),
        row(m.NewViewAMsg, 1, view, ("justify", QuorumCert), ("sender_sig", Signature)),
        row(m.ProposalMsg, 2, view, ("block", Block), ("justify", QuorumCert)),
        row(m.ProposalAMsg, 3, view, ("block", Block), ("acc", Accumulator),
            ("leader_sig", Signature)),
        row(m.VoteMsg, 4, view, ("phase", PHASE), ("block_hash", HASH), ("sig", Signature)),
        row(m.QCMsg, 5, view, ("phase", PHASE), ("qc", QuorumCert)),
        row(m.CommitmentMsg, 6, ("kind", STR), ("commitment", Commitment)),
        row(m.BlockProposal, 7, view, ("block", Block), ("acc", Opt(Accumulator)),
            ("leader_sig", Signature), ("justify_commitment", Opt(Commitment))),
        row(m.ChainedProposal, 8, view, ("block", Block), ("leader_sig", Signature)),
        row(ChainedVote, 9, view, ("prep", Opt(Commitment)), ("nv", Commitment)),
        row(FastProposal, 10, view, ("block", Block), ("justify", QuorumCert),
            ("proof", Opt(Seq(m.NewViewAMsg)))),
        row(m.BlockRequest, 11, ("block_hash", HASH)),
        row(m.BlockResponse, 12, ("block", Block)),
        row(m.ClientRequest, 13, ("client_id", I64), ("tx", Transaction)),
        row(m.ClientReply, 14, ("replica", I64), ("client_id", I64), ("tx_id", I64),
            ("executed_at", F64), ("verdict", VERDICT)),
        row(SyncRequest, 15, ("have_height", I64), ("have_view", I64)),
        row(SyncCheckpoint, 16, ("checkpoint", Checkpoint)),
        row(SyncBlocks, 17, ("start_height", I64), ("done", BOOL), ("tip_qc", Opt(Commitment)),
            ("blocks", Seq(Block))),
        row(m.ViewAnnounce, 18, view),
    )


# -- the row compiler ----------------------------------------------------------


@functools.cache
def _compile(kind: Kind) -> Plan:
    """The ``(encode, decode)`` plan of a wire kind, built once per kind."""
    if not isinstance(kind, type):
        return kind.plan()
    for layout in wire_table():
        if layout.cls is kind:
            return _compile_row(layout)
    raise CodecError(f"no wire table row for {kind.__name__}")


def _of_attr(name: str, enc: Enc) -> Enc:
    """``enc`` applied to attribute ``name`` of the object it is handed."""
    get = attrgetter(name)

    def enc_attr(obj: Any, put: Put) -> None:
        enc(get(obj), put)

    return enc_attr


def _compile_row(layout: Layout) -> Plan:
    """Both directions of one table row."""
    cls = layout.cls
    steps: list[Plan] = []
    produced: list[str] = []  # attribute names, in the order the decoder yields them
    run: list[tuple[str, Fixed]] = []  # the fixed-width fields since the last step

    def close_run() -> None:
        if run:
            names = [name for name, _ in run]
            steps.append(_run([kind for _, kind in run], attrgetter(*names)))
            produced.extend(names)
            run.clear()

    for entry in layout.entries:
        if isinstance(entry, tuple) and isinstance(entry[1], Fixed):
            run.append((entry[0], entry[1]))
            continue
        close_run()
        if isinstance(entry, Zeros):
            steps.append(entry.step(produced.index(entry.count)))
        elif isinstance(entry, Either):
            steps.append(entry.step())
            produced += [entry.name, entry.other]
        else:
            enc_kind, dec_kind = _compile(entry[1])
            steps.append((_of_attr(entry[0], enc_kind), dec_kind))
            produced.append(entry[0])
    close_run()
    enc_steps = [enc_step for enc_step, _ in steps]
    dec_steps = [dec_step for _, dec_step in steps]

    # The decoder yields values in wire order; the constructor wants its own.
    params = [f.name for f in dataclasses.fields(cls) if f.init][: len(produced)]
    if sorted(params) != sorted(produced):
        raise TypeError(f"wire table row of {cls.__name__} does not match its constructor")
    order = [produced.index(name) for name in params]
    reorder = None if order == sorted(order) else itemgetter(*order)

    def enc(obj: Any, put: Put) -> None:
        for step in enc_steps:
            step(obj, put)

    def dec(buf: bytes, pos: int, out: list[Any]) -> int:
        args: list[Any] = []
        for step in dec_steps:
            pos = step(buf, pos, args)
        out.append(cls(*(args if reorder is None else reorder(args))))
        return pos

    return (enc_steps[0] if len(enc_steps) == 1 else enc), dec


# -- messages (type tag + body) --------------------------------------------------


@functools.cache
def _messages() -> tuple[dict[type[Any], tuple[bytes, Enc]], dict[int, Dec]]:
    """Registered messages: ``(tag byte, encode)`` by class, ``decode`` by tag."""
    rows = [(row, _compile(row.cls)) for row in wire_table() if row.tag is not None]
    return (
        {row.cls: (bytes((row.tag,)), plan[0]) for row, plan in rows},
        {row.tag: plan[1] for row, plan in rows},
    )


def _encoded(prefix: bytes, enc: Enc, value: Any) -> bytes:
    parts = [prefix]
    try:
        enc(value, parts.append)
    except struct.error as exc:
        raise CodecError(f"{type(value).__name__} field out of range: {exc}") from exc
    return b"".join(parts)


def _decoded(dec: Dec, data: bytes, pos: int) -> Any:
    out: list[Any] = []
    try:
        pos = dec(data, pos, out)
    except struct.error as exc:
        raise CodecError(_TRUNCATED) from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes")
    return out[0]


def encode_message(msg: Any) -> bytes:
    """Serialize any protocol message to bytes (leading type tag)."""
    entry = _messages()[0].get(type(msg))
    if entry is None:
        raise CodecError(f"no codec for {type(msg).__name__}")
    return _encoded(entry[0], entry[1], msg)


def decode_message(data: bytes) -> Any:
    """Parse bytes produced by :func:`encode_message`."""
    dec = _messages()[1].get(_flag(data, 0))
    if dec is None:
        raise CodecError(f"unknown message tag {data[0]}")
    return _decoded(dec, data, 1)


def encode_fields(kinds: Sequence[Kind], values: Sequence[Any]) -> bytes:
    """Values of the given wire kinds back to back: no tag, no header."""
    if len(kinds) != len(values):
        raise CodecError(f"{len(values)} values for {len(kinds)} kinds")
    return b"".join(_encoded(b"", _compile(k)[0], v) for k, v in zip(kinds, values))


def decode_fields(kinds: Sequence[Kind], data: bytes) -> list[Any]:
    """Parse bytes produced by :func:`encode_fields`; trailing bytes refused."""

    def dec(buf: bytes, pos: int, out: list[Any]) -> int:
        out.append([])
        for kind in kinds:
            pos = _compile(kind)[1](buf, pos, out[0])
        return pos

    values: list[Any] = _decoded(dec, data, 0)
    return values


#: Leading bytes of every durable record; then ``WIRE_VERSION`` and its kind.
RECORD_MAGIC = b"DMYS"


def _record_head(cls: type[Any]) -> bytes:
    from repro.tee.checkpoint import Checkpoint
    from repro.tee.sealed import SealCounter, SealedState

    kinds = (SealedState, SealCounter, Checkpoint)  # in kind-byte order
    if cls not in kinds:
        raise CodecError(f"{cls.__name__} is not a durable record")
    return RECORD_MAGIC + bytes((WIRE_VERSION, kinds.index(cls)))


def encode_record(record: Any) -> bytes:
    """One seal-store file: magic, wire version and kind, then the record's row."""
    return _encoded(_record_head(type(record)), _compile(type(record))[0], record)


def decode_record(cls: type[Any], data: bytes) -> Any:
    """Parse bytes produced by :func:`encode_record` for a ``cls`` record."""
    head = _record_head(cls)
    if not data.startswith(head):
        raise CodecError(f"not a wire version {WIRE_VERSION} {cls.__name__} record")
    return _decoded(_compile(cls)[1], data, len(head))


def wire_size_of(payload: Any) -> int:
    """Best-effort wire size of a payload in bytes: messages implement
    ``wire_size()``, anything else (test strings, tuples...) is a small constant."""
    sizer = getattr(payload, "wire_size", None)
    return int(sizer()) if callable(sizer) else 64


def msg_type_of(payload: Any) -> str:
    """Message-type label used for per-type accounting."""
    label = getattr(payload, "msg_type", None)
    return label if isinstance(label, str) else type(payload).__name__
