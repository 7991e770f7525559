"""The wire table against the outside world.

* Golden vectors: ``golden_wire_v2.json`` was written by
  ``scripts/wire_golden.py`` from the hand-written codec that preceded
  the table and is committed unchanged; byte equality with it is the
  argument that builds on either side of that change interoperate.  The
  durable records, the ``Step`` row, the connection hello's row and the
  two packed client rows were added to it later, every earlier entry
  byte-identical.
* Ranges: an integer that does not fit its field is a ``CodecError``
  whichever fused ``struct`` call it lands in, never a ``struct.error``.
  A row object is a dataclass or a tuple record; the walker that finds a
  field's carrier treats both as rows and a plain tuple as a sequence.
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.codec import (
    CodecError,
    decode_fields,
    decode_message,
    decode_record,
    encode_fields,
    encode_message,
    encode_record,
)
from repro.core.messages import ProposalAMsg
from repro.core.phases import Step
from repro.protocols.sync import SyncCheckpoint
from repro.runtime.framing import HELLO_MAGIC, Hello, decode_hello, encode_frame, encode_hello
from repro.tee.checkpoint import Checkpoint
from tests.core.test_codec import ALL_MESSAGES, RECORDS, STEP, acc, block, checkpoint, sig

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_wire_v2.json").read_text())


def _blocks(msg):
    return ([msg.block] if hasattr(msg, "block") else []) + list(getattr(msg, "blocks", ()))


def test_golden_file_covers_the_catalogue():
    assert GOLDEN["wire_version"] == codec.WIRE_VERSION == 2
    assert [entry["type"] for entry in GOLDEN["messages"]] == [
        type(msg).__name__ for msg in ALL_MESSAGES
    ]
    registered = {row.cls.__name__ for row in codec.wire_table() if row.tag is not None}
    assert registered == {entry["type"] for entry in GOLDEN["messages"]}
    assert [entry["type"] for entry in GOLDEN["records"]] == [
        type(record).__name__ for record in RECORDS
    ]


@pytest.mark.parametrize(
    "msg, golden", list(zip(ALL_MESSAGES, GOLDEN["messages"], strict=True)),
    ids=lambda value: value["type"] if isinstance(value, dict) else "",
)
def test_golden_bytes_both_ways(msg, golden):
    wire = bytes.fromhex(golden["hex"])
    assert encode_message(msg) == wire
    decoded = decode_message(wire)
    assert decoded == msg
    # Equality skips the hash (a derived field): compare it by itself.
    assert [b.hash.hex() for b in _blocks(decoded)] == golden["block_hashes"]
    assert [b.hash.hex() for b in _blocks(msg)] == golden["block_hashes"]


def test_golden_standalone_checkpoint():
    wire = bytes.fromhex(GOLDEN["checkpoint"])
    assert encode_fields((Checkpoint,), (checkpoint(),)) == wire
    assert decode_fields((Checkpoint,), wire) == [checkpoint()]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_golden_records_both_ways(record):
    wire = bytes.fromhex({e["type"]: e["hex"] for e in GOLDEN["records"]}[type(record).__name__])
    assert encode_record(record) == wire
    assert decode_record(type(record), wire) == record
    # Magic, wire version and kind byte, then the record's row.
    head = codec.RECORD_MAGIC + bytes((codec.WIRE_VERSION, RECORDS.index(record)))
    assert wire == head + encode_fields((type(record),), (record,))


def test_golden_step_row():
    wire = bytes.fromhex(GOLDEN["step"])
    assert encode_fields((Step,), (STEP,)) == wire
    assert decode_fields((Step,), wire) == [STEP]


def test_golden_hello_row():
    """The hello frame is the magic, then this row: the pre-table bytes."""
    wire = bytes.fromhex(GOLDEN["hello"])
    assert encode_fields((Hello,), (Hello(3, codec.WIRE_VERSION),)) == wire
    assert encode_hello(3) == encode_frame(HELLO_MAGIC + wire)
    assert decode_hello(HELLO_MAGIC + wire) == 3


# -- ranges ----------------------------------------------------------------------

LIMITS = {codec.I64: (-(2**63), 2**63 - 1), codec.U32: (0, 2**32 - 1)}

#: The catalogue, plus the shapes it lacks: a working-form accumulator
#: (``ids`` set), a checkpoint travelling in a registered message, the
#: durable records, a Checker's step and a hello.
CARRIERS = [
    *ALL_MESSAGES,
    ProposalAMsg(2, block(), acc(finalized=False), sig()),
    SyncCheckpoint(checkpoint()),
    *RECORDS,
    STEP,
    Hello(3, 2),
]


def _encode(obj):
    """``obj``'s row (a message without its tag)."""
    return encode_fields((type(obj),), (obj,))


def _integer_fields():
    """``(class, field, limits, wrap)`` of every i64 / u32 the table declares."""
    for row in codec.wire_table():
        for entry in row.entries:
            if isinstance(entry, codec.Either):
                named = [(entry.name, entry.kind), (entry.other, entry.other_kind)]
            elif isinstance(entry, tuple):
                named = [entry]
            else:
                continue
            for name, kind in named:
                wrap = lambda value: value  # noqa: E731
                if isinstance(kind, codec.Seq):
                    kind, wrap = kind.item, lambda value: (value,)  # noqa: E731
                elif isinstance(kind, codec.Opt):
                    kind = kind.item
                if kind in LIMITS:
                    yield row.cls, name, LIMITS[kind], wrap


INTEGER_FIELDS = list(_integer_fields())


def _row_fields(obj):
    """``(name, settable)`` for each field of a row object - a dataclass or a
    tuple record (``Transaction``, ``ClientRequest``, ``ClientReply``) - else
    ``None``: a plain tuple is a sequence, not a row."""
    if dataclasses.is_dataclass(obj):
        return [(f.name, f.init) for f in dataclasses.fields(obj)]
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return [(name, True) for name in obj._fields]
    return None


def _replaced(obj, **changes):
    """``obj`` with ``changes``, by the record's own copy constructor."""
    if isinstance(obj, tuple):
        return obj._replace(**changes)
    return dataclasses.replace(obj, **changes)


def _walk(obj):
    """Every row object inside ``obj``, itself included."""
    fields = _row_fields(obj)
    if fields is not None:
        yield obj
        for name, _settable in fields:
            yield from _walk(getattr(obj, name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _walk(item)


def _swapped(obj, target, replacement):
    """``obj`` rebuilt with the object ``target`` inside it replaced."""
    if obj is target:
        return replacement
    fields = _row_fields(obj)
    if fields is not None:
        for name, settable in fields:
            old = getattr(obj, name) if settable else None
            new = _swapped(old, target, replacement)
            if new is not old:
                return _replaced(obj, **{name: new})
    elif isinstance(obj, tuple):
        for i, old in enumerate(obj):
            new = _swapped(old, target, replacement)
            if new is not old:
                return (*obj[:i], new, *obj[i + 1 :])
    return obj


def _carrier_of(cls, name):
    """A message holding a ``cls`` whose ``name`` is set, and that instance."""
    for msg in CARRIERS:
        for inst in _walk(msg):
            if type(inst) is cls and getattr(inst, name) is not None:
                return msg, inst
    raise AssertionError(f"no catalogued message carries a {cls.__name__}.{name}")


def test_the_table_declares_integer_fields_everywhere_expected():
    declared = {(cls.__name__, name) for cls, name, _limits, _wrap in INTEGER_FIELDS}
    assert {
        ("Transaction", "client_id"), ("Transaction", "payload_bytes"),
        ("ClientRequest", "client_id"), ("Accumulator", "count"), ("Accumulator", "ids"),
        ("Commitment", "v_just"), ("ClientReply", "tx_id"), ("Checkpoint", "height"),
        ("Block", "view"), ("SyncBlocks", "start_height"), ("SealedState", "seal_counter"),
        ("SealCounter", "latest"), ("Step", "view"),
    } <= declared
    assert len(declared) == len(INTEGER_FIELDS)


FIELD_IDS = [f"{cls.__name__}.{name}" for cls, name, _limits, _wrap in INTEGER_FIELDS]


@pytest.mark.parametrize("field", INTEGER_FIELDS, ids=FIELD_IDS)
@given(excess=st.integers(min_value=1, max_value=2**70), above=st.booleans())
@settings(max_examples=20, deadline=None)
def test_out_of_range_integers_are_codec_errors(field, excess, above):
    cls, name, (low, high), wrap = field
    msg, inst = _carrier_of(cls, name)
    bad = high + excess if above else low - excess
    mutated = _swapped(msg, inst, _replaced(inst, **{name: wrap(bad)}))
    assert mutated != msg
    with pytest.raises(CodecError):
        _encode(mutated)


@pytest.mark.parametrize("field", INTEGER_FIELDS, ids=FIELD_IDS)
def test_each_integer_field_accepts_its_limits(field):
    cls, name, limits, wrap = field
    msg, inst = _carrier_of(cls, name)
    for value in limits:
        if (cls.__name__, name) == ("Transaction", "payload_bytes") and value:
            continue  # 4 GiB of zeros: the limit is real, the test box is not
        mutated = _swapped(msg, inst, _replaced(inst, **{name: wrap(value)}))
        assert decode_fields((type(mutated),), _encode(mutated)) == [mutated]
