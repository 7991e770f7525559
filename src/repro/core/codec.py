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
type are both derived from the same row, so they cannot drift apart.  A
row that is fixed-width throughout, rows nested in it included (a client
request and its transaction), is one struct, and its plan is generated
code: one ``pack`` or ``unpack_from`` and one constructor call.  A
block's transactions are a :class:`Column`: the bytes of
``Seq(Transaction)``, sliced to and from the block's packed column with
no record built per transaction.  So are the client rows a socket host
packs into one message (:class:`Packed`: ``ClientRequests`` and
``ClientReplies``, the bytes of ``Seq`` of the row), whose records are
built only as they are iterated.  Nothing outside the table knows a
message's shape.

The same table is the byte format of a connection's hello and of the
seal store's files: :func:`encode_record` writes one durable record (a
replica's durable state, the seal-counter record) behind a magic,
``WIRE_VERSION`` and a kind byte, and :func:`encode_fields` a bare run of
kinds (the hello, the fields a Checker declares ``SEALED`` or a replica
``DURABLE``).

Every malformed-input failure surfaces as :class:`CodecError`;
``struct.error`` / ``IndexError`` / ``UnicodeDecodeError`` never escape
this module - a value out of range for its field included.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, ClassVar, NamedTuple, Union

from repro.crypto.hashing import HASH_SIZE, Hash
from repro.crypto.scheme import Signature
from repro.errors import CodecError
from repro.core import messages as m
from repro.core.block import Block
from repro.core.certificate import Accumulator, QuorumCert
from repro.core.commitment import Commitment
from repro.core.mempool import (
    TX_RECORD,
    AdmissionVerdict,
    Transaction,
    TxBatch,
    record_field,
)
from repro.core.phases import Phase, Step

#: Wire-format generation.  Version 2 added the transaction ``fee``
#: field and the admission verdict byte in client replies; peers
#: announce their version in the connection hello
#: (:mod:`repro.runtime.framing`) and mismatched generations are
#: refused at connect time rather than misparsed mid-stream.  The packed
#: client rows (tags 19 and 20) came later within version 2: a build
#: without them refuses the first packed frame as an unknown tag
#: (``CodecError``, connection closed), it does not misparse it.
WIRE_VERSION = 2


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
        packer = struct.Struct("<" + self.fmt)
        pack, unpack_from, size = packer.pack, packer.unpack_from, packer.size
        to_wire, from_wire = self.to_wire, self.from_wire

        def enc(value: Any, put: Put) -> None:
            put(pack(value if to_wire is None else to_wire(value)))

        def dec(buf: bytes, pos: int, out: list[Any]) -> int:
            (value,) = unpack_from(buf, pos)
            out.append(value if from_wire is None else from_wire(value))
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
class Column:
    """``Seq(item)`` on the wire for a fixed-width row ``item`` - a ``u32``
    count, then each record with its zero run - carried by one ``box``:
    ``bytes(value)`` is the records back to back without their zero runs,
    in the row's fused struct, and ``box(packed)`` is the value again.  So
    encoding writes the records as they are, with the zero runs between
    them, and decoding slices them out of the frame: no record object is
    built either way.  A block's transactions are a
    :class:`~repro.core.mempool.TxBatch` column, the records of a
    :class:`Packed` message a ``bytes`` one."""

    item: type = Transaction
    box: Callable[[bytes], Any] = TxBatch

    def plan(self) -> Plan:
        head = _head(self.item)
        if head is None:
            raise TypeError(f"a column's item must be a fixed-width row, not {self.item}")
        box, record = self.box, head.size
        if box is TxBatch and (
            head.order != sorted(head.order) or head.packer.format != TX_RECORD.format
        ):
            raise TypeError("a TxBatch column's record must be the Transaction row, in field order")
        # The zero run's length: read from one record's start, and a view
        # of every record for ``record_field``.
        size_at: Callable[[bytes, int], tuple[Any, ...]] | None = None
        zeros_view: str | None = None
        checks: list[tuple[int, Callable[[Any], Any]]] = []  # one-byte fields to convert
        at = 0
        for path, leaf in head.leaves:
            width = struct.calcsize("<" + leaf.fmt)
            if path == head.zeros:
                size_at = struct.Struct(f"<{at}x{leaf.fmt}").unpack_from
                zeros_view = f"{at}x{leaf.fmt}{record - at - width}x"
            if leaf.from_wire is not None:
                if width != 1:
                    raise TypeError(f"{path}: a column converts one-byte fields only")
                checks.append((at, leaf.from_wire))
            at += width

        def enc(value: Any, put: Put) -> None:
            packed = bytes(value)
            put(_COUNT.pack(len(packed) // record))
            runs = () if zeros_view is None else record_field(zeros_view, packed)
            if not any(map(any, runs)):  # no zero run anywhere: the column as it is
                put(packed)
                return
            start = end = 0
            for size in itertools.chain.from_iterable(runs):
                end += record
                if size:
                    put(packed[start:end])
                    put(bytes(size))
                    start = end
            put(packed[start:])

        def dec(buf: bytes, pos: int, out: list[Any]) -> int:
            (count,) = _COUNT.unpack_from(buf, pos)
            pos += 4
            if size_at is None:
                start, pos = pos, pos + count * record
                if pos > len(buf):
                    raise CodecError(_TRUNCATED)
                packed = buf[start:pos]
            else:
                runs: list[bytes] = []  # the records between zero runs
                start = pos
                for _ in range(count):
                    (size,) = size_at(buf, pos)
                    pos += record
                    if size:
                        runs.append(buf[start:pos])
                        pos += size
                        start = pos
                if pos > len(buf):
                    raise CodecError(_TRUNCATED)
                runs.append(buf[start:pos])
                packed = b"".join(runs)
            for offset, from_wire in checks:  # an enum's tag: refused here, not when built
                for value in set(packed[offset::record]):
                    from_wire(value)
            out.append(box(packed))
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
    """Last entry of a fixed-width row: as many zero bytes as field ``count``
    of the row says (a transaction's payload, whose content is abstract)."""

    count: str


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
Kind = Union[Fixed, Var, Seq, Column, Opt, OneOf, type]
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


@dataclass(frozen=True)
class Packed:
    """Several messages of one fixed-width row (``ROW``) sent as one: their
    records back to back in ``packed``, without their zero runs.

    A socket host sends the rows one flush has for a peer as one ``Packed``
    message, a registered row whose body is a :class:`Column` of ``ROW``
    (the bytes of ``Seq(ROW)``).  Iterating one builds the records as they
    are reached, each equal to the message it was packed from.
    :meth:`~repro.runtime.machine.Machine.on_messages` hands one whole to a
    machine that serves its type (a replica admits a frame of requests in
    one pass) and its records to any other.
    """

    packed: bytes
    ROW: ClassVar[type]

    def __post_init__(self) -> None:
        if len(self.packed) % _records(self.ROW)[2].size:
            raise CodecError(f"{len(self.packed)} bytes are no whole number of records")

    @classmethod
    def of(cls, rows: Iterable[Any]) -> Packed:
        """The rows' records, in order; a field outside its wire range raises
        :class:`CodecError`."""
        try:
            return cls(b"".join(map(_records(cls.ROW)[0], rows)))
        except struct.error as exc:
            raise CodecError(f"{cls.ROW.__name__} field out of range: {exc}") from exc

    def __len__(self) -> int:
        return len(self.packed) // _records(self.ROW)[2].size

    def __iter__(self) -> Iterator[Any]:
        _pack, build, record = _records(self.ROW)
        return map(build, record.iter_unpack(self.packed))

    def wire_size(self) -> int:
        """One message header, then each record's declared size without its own."""
        return m.MSG_HEADER_BYTES + sum(row.wire_size() - m.MSG_HEADER_BYTES for row in self)


class ClientRequests(Packed):
    ROW = m.ClientRequest


class ClientReplies(Packed):
    ROW = m.ClientReply


#: The packed message that carries each packable row.
PACKED: dict[type[Any], type[Packed]] = {
    m.ClientRequest: ClientRequests,
    m.ClientReply: ClientReplies,
}


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
    own ten of its classes import this one."""
    from repro.protocols.chained_damysus import ChainedVote
    from repro.protocols.fast_hotstuff import FastProposal
    from repro.protocols.sync import SyncBlocks, SyncCheckpoint, SyncRequest
    from repro.runtime.framing import Hello
    from repro.tee.checkpoint import Checkpoint
    from repro.tee.sealed import DurableState, SealCounter, SealedState

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
            ("is_blank", BOOL), ("created_at", F64), ("transactions", Column()),
            ("justify", OneOf((None, QuorumCert, Accumulator, Commitment)))),
        row(Checkpoint, None, ("replica", I64), ("counter", I64), ("height", I64), view,
            ("block_hash", HASH), ("state_root", HASH), ("qc", Commitment),
            ("signature", Signature)),
        row(Step, None, view, ("phase", PHASE)),
        row(SealedState, None, ("component_id", I64), ("seal_counter", I64), ("payload", BYTES),
            ("mac", BYTES)),
        row(SealCounter, None, ("component_id", I64), ("latest", I64)),
        row(DurableState, None, ("payload", BYTES), ("sealed", Opt(SealedState))),
        row(Hello, None, ("pid", U32), ("version", U32)),
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
        row(ClientRequests, 19, ("packed", Column(m.ClientRequest, bytes))),
        row(ClientReplies, 20, ("packed", Column(m.ClientReply, bytes))),
    )


# -- the row compiler ----------------------------------------------------------


def _layout(cls: type[Any]) -> Layout:
    for layout in wire_table():
        if layout.cls is cls:
            return layout
    raise CodecError(f"no wire table row for {cls.__name__}")


@functools.cache
def _compile(kind: Kind) -> Plan:
    """The ``(encode, decode)`` plan of a wire kind, built once per kind."""
    if not isinstance(kind, type):
        return kind.plan()
    return _compile_row(_layout(kind))


#: A run member: a field's name and its fixed-width kind or row.
Member = tuple[str, Union[Fixed, "_Head"]]


def _fusable(entry: Entry) -> Member | None:
    """``entry`` as a run member, if its field is fixed-width."""
    if isinstance(entry, tuple):
        name, kind = entry
        if isinstance(kind, Fixed):
            return name, kind
        head = _head(kind)
        if head is not None:
            return name, head
    return None


@functools.cache
def _head(kind: Kind) -> _Head | None:
    """The whole-row plan of ``kind`` if it is a fixed-width row: fixed-width
    fields and rows only, a zero run (its own or its last row's) at the end."""
    if not isinstance(kind, type):
        return None
    layout = _layout(kind)
    entries, last = layout.entries, layout.entries[-1]
    zeros: str | None = None
    if isinstance(last, Zeros):
        entries, zeros = entries[:-1], last.count
    members = [_fusable(entry) for entry in entries]
    fused = [member for member in members if member is not None]
    if len(fused) < len(members) or not fused:
        return None
    nested_zeros = [isinstance(row, _Head) and row.zeros is not None for _, row in fused]
    if any(nested_zeros[:-1]) or (zeros is not None and nested_zeros[-1]):
        return None  # one zero run per row, and only at its end
    return _Head(layout, fused, zeros)


def _order(cls: type[Any], produced: list[str]) -> list[int]:
    """Where the constructor's arguments sit among ``produced``, the
    attribute names a row's decoder yields in wire order.  A tuple record
    takes every one of its fields from the wire; a dataclass may leave
    trailing ones to their defaults."""
    if issubclass(cls, tuple):
        params = list(cls._fields)
    else:
        params = [f.name for f in dataclasses.fields(cls) if f.init][: len(produced)]
    if sorted(params) != sorted(produced):
        raise TypeError(f"wire table row of {cls.__name__} does not match its constructor")
    return [produced.index(name) for name in params]


class _Run:
    """Consecutive fixed-width fields of a row, packed and unpacked by one
    precompiled :class:`struct.Struct`.  In a fixed-width row
    (:class:`_Head`) the fields of a nested fixed-width row join the struct
    too, and the row's zero run - its own, or its last nested row's -
    follows it."""

    def __init__(self, members: list[Member], zeros: str | None = None) -> None:
        self.members = members
        #: ``(first value, byte offset)`` of each member inside the struct.
        self.offsets: list[tuple[int, int]] = []
        #: Every packed value: its dotted attribute and its kind.
        self.leaves: list[tuple[str, Fixed]] = []
        fmt = "<"
        for name, kind in members:
            self.offsets.append((len(self.leaves), struct.calcsize(fmt)))
            if isinstance(kind, Fixed):
                fmt += kind.fmt
                self.leaves.append((name, kind))
            else:
                fmt += kind.packer.format[1:]
                self.leaves += [(f"{name}.{path}", leaf) for path, leaf in kind.leaves]
                if kind.zeros is not None:
                    zeros = f"{name}.{kind.zeros}"
        self.packer = struct.Struct(fmt)
        self.size = self.packer.size
        #: The dotted attribute whose value is the zero run's length.
        self.zeros = zeros

    def plan(self) -> Plan:
        """As one step of a row: the fields' values onto the decoder's list."""
        enc = _Source()
        enc.pack(self, "obj", 1)
        dec = _Source()
        dec.line(1, f"v = {dec.ref(self.packer.unpack_from)}(buf, pos)")
        dec.line(1, f"out += ({', '.join(dec.values(self, 0, 0, 1))},)")
        dec.line(1, f"return pos + {self.size}")
        return enc.function("encode_run", "obj, put"), dec.function("decode_run", "buf, pos, out")


class _Head(_Run):
    """A fixed-width row compiled whole.  Its decoder is one ``unpack_from``
    and one constructor call per object: ``cls(...)`` for a dataclass, and
    for a tuple record (``Transaction``, ``ClientRequest``, ``ClientReply``:
    the rows built once per transaction per hop) one C call,
    ``tuple.__new__(cls, (...))``, that runs no Python ``__new__``."""

    def __init__(self, layout: Layout, members: list[Member], zeros: str | None) -> None:
        super().__init__(members, zeros)
        self.cls = layout.cls
        self.order = _order(self.cls, [name for name, _ in members])

    def plan(self) -> Plan:
        name = self.cls.__name__
        enc = _Source()
        enc.pack(self, "obj", 1)
        dec = _Source()
        obj = dec.build(self, None, 0, 1)
        dec.line(1, f"out.append({obj})")
        dec.skip(self, obj, 1)
        dec.line(1, "return pos")
        return (
            enc.function(f"encode_{name}", "obj, put"),
            dec.function(f"decode_{name}", "buf, pos, out"),
        )


@functools.cache
def _records(
    row: type,
) -> tuple[Callable[[Any], bytes], Callable[[tuple[Any, ...]], Any], struct.Struct]:
    """``(pack, build, struct)`` of a fixed-width row's records, the form a
    :class:`Column` carries them in: ``pack(obj)`` is one object's struct
    bytes without its zero run, and ``build(values)`` the object again
    from what the struct unpacks, in one generated call each."""
    head = _head(row)
    if head is None:
        raise TypeError(f"{row.__name__} is not a fixed-width row")
    enc = _Source()
    enc.line(1, f"return {enc.packed(head, 'obj')}")
    dec = _Source()
    dec.line(1, f"return {dec.build(head, 0, 0, 1)}")
    name = row.__name__
    return enc.function(f"record_{name}", "obj"), dec.function(f"build_{name}", "v"), head.packer


class _Source:
    """The Python a hand-written codec would spell out for fixed-width runs,
    generated from their table rows and compiled once: no call per field,
    none per nested row.  Names come from the table, never from input."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.scope: dict[str, Any] = {"CodecError": CodecError, "TRUNCATED": _TRUNCATED}
        self.objects = 0  # names bound to built objects so far

    def ref(self, value: Any) -> str:
        """The name the generated code reads ``value`` by."""
        for name, known in self.scope.items():
            if known is value:
                return name
        name = f"_{len(self.scope)}"
        self.scope[name] = value
        return name

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def function(self, name: str, params: str) -> Any:
        source = f"def {name}({params}):\n" + "\n".join(self.lines)
        exec(source, self.scope)  # noqa: S102 - source built from the wire table alone
        return self.scope[name]

    def packed(self, run: _Run, obj: str) -> str:
        """An expression for ``run``'s struct bytes of the object named ``obj``."""
        values = []
        for path, leaf in run.leaves:
            value = f"{obj}.{path}"
            values.append(value if leaf.to_wire is None else f"{self.ref(leaf.to_wire)}({value})")
        return f"{self.ref(run.packer.pack)}({', '.join(values)})"

    def pack(self, run: _Run, obj: str, indent: int) -> None:
        """Statements writing ``run``'s bytes for the object named ``obj``."""
        self.line(indent, f"put({self.packed(run, obj)})")
        if run.zeros is not None:
            self.line(indent, f"if {obj}.{run.zeros}:")
            self.line(indent + 1, f"put(bytes({obj}.{run.zeros}))")

    def build(self, head: _Head, first: int | None, at: int, indent: int) -> str:
        """Statements binding a new name to the ``head`` object whose bytes
        start at ``buf[pos + at]``, already unpacked to ``v[first:]``
        unless ``first`` is ``None``; returns the name."""
        self.objects += 1
        obj = f"o{self.objects}"
        if first is None:
            start = f"pos + {at}" if at else "pos"
            self.line(indent, f"v = {self.ref(head.packer.unpack_from)}(buf, {start})")
            first = 0
        values = self.values(head, first, at, indent)
        args = ", ".join(values[i] for i in head.order)
        if issubclass(head.cls, tuple):
            new = self.ref(tuple.__new__)
            self.line(indent, f"{obj} = {new}({self.ref(head.cls)}, ({args},))")
        else:
            self.line(indent, f"{obj} = {self.ref(head.cls)}({args})")
        return obj

    def values(self, run: _Run, first: int, at: int, indent: int) -> list[str]:
        """Expressions for ``run``'s member values, unpacked to ``v[first:]``
        from ``buf[pos + at]``; a nested row is built by statements first."""
        values = []
        for (_, kind), (index, offset) in zip(run.members, run.offsets, strict=True):
            if isinstance(kind, Fixed):
                value = f"v[{first + index}]"
                convert = kind.from_wire
                values.append(value if convert is None else f"{self.ref(convert)}({value})")
            else:
                values.append(self.build(kind, first + index, at + offset, indent))
        return values

    def skip(self, head: _Head, obj: str, indent: int) -> None:
        """Statements moving ``pos`` past the ``head`` object named ``obj``,
        its zero run included."""
        if head.zeros is None:
            self.line(indent, f"pos += {head.size}")
            return
        self.line(indent, f"pos += {head.size} + {obj}.{head.zeros}")
        self.line(indent, "if pos > len(buf):")
        self.line(indent + 1, "raise CodecError(TRUNCATED)")


def _of_attr(name: str, enc: Enc) -> Enc:
    """``enc`` applied to attribute ``name`` of the object it is handed."""
    get = attrgetter(name)

    def enc_attr(obj: Any, put: Put) -> None:
        enc(get(obj), put)

    return enc_attr


def _compile_row(layout: Layout) -> Plan:
    """Both directions of one table row."""
    head = _head(layout.cls)
    if head is not None:
        return head.plan()
    cls = layout.cls
    steps: list[Plan] = []
    produced: list[str] = []  # attribute names, in the order the decoder yields them
    run: list[Member] = []  # the fixed-width fields since the last step

    def close_run() -> None:
        if run:
            steps.append(_Run(list(run)).plan())
            produced.extend(name for name, _ in run)
            run.clear()

    for entry in layout.entries:
        if isinstance(entry, tuple) and isinstance(entry[1], Fixed):
            run.append((entry[0], entry[1]))
            continue
        close_run()
        if isinstance(entry, Zeros):
            raise TypeError(f"{cls.__name__}: a zero run must end a fixed-width row")
        if isinstance(entry, Either):
            steps.append(entry.step())
            produced += [entry.name, entry.other]
        else:
            enc_kind, dec_kind = _compile(entry[1])
            steps.append((_of_attr(entry[0], enc_kind), dec_kind))
            produced.append(entry[0])
    close_run()
    enc_steps = [enc_step for enc_step, _ in steps]
    dec_steps = [dec_step for _, dec_step in steps]
    order = _order(cls, produced)
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


@functools.cache
def _packed_tags() -> frozenset[int]:
    packed = PACKED.values()
    return frozenset(row.tag for row in wire_table() if row.tag is not None and row.cls in packed)


def message_rows(data: bytes, pos: int = 0) -> int:
    """How many messages the encoded message at ``data[pos:]`` stands for:
    a :class:`Packed` message's record count (as its header claims), else 1."""
    if len(data) >= pos + 5 and data[pos] in _packed_tags():
        count: int = _COUNT.unpack_from(data, pos + 1)[0]
        return count
    return 1


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
    from repro.tee.sealed import DurableState, SealCounter, SealedState

    kinds = (SealedState, SealCounter, Checkpoint, DurableState)  # in kind-byte order
    if cls not in kinds:
        raise CodecError(f"{cls.__name__} is not a durable record")
    return RECORD_MAGIC + bytes((WIRE_VERSION, kinds.index(cls)))


def encode_record(record: Any) -> bytes:
    """One durable record: magic, wire version and kind, then the record's row."""
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
