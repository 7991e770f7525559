"""One fuzz target for every decoder of bytes a replica did not write.

A replica reads outside bytes in five places: peer frames
(``decode_message``; a block's transaction column and the packed client
rows are also fuzzed on their own, since their decoders slice records
instead of parsing each, and a packed frame's records are built only as
they are iterated), the
stream they arrive on (``FrameDecoder.feed``),
a connection's hello (``decode_hello``), the seal directory's records
(``decode_record``: its durable state, with or without a sealed checker,
and its counter) and the orchestrator's fault spec
(``FaultPlan.from_rules_spec``).  Each is held to one contract: on any
input it answers the same way twice, and it either returns or raises its
boundary's named error - ``CodecError``, ``FramingError`` or
``ConfigError`` (a restart turns a ``CodecError`` into a named
``TEERefusal``, ``tests/tee/test_seal_store.py``).  Never ``IndexError``,
``UnicodeDecodeError``, ``RecursionError`` or the like.  Hypothesis
starts from a valid input of each decoder and truncates, splices, flips
and replaces its bytes.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import (
    ClientReplies,
    ClientRequests,
    CodecError,
    Column,
    Packed,
    decode_fields,
    decode_message,
    decode_record,
    encode_fields,
    encode_message,
    encode_record,
)
from repro.core.faults import FaultPlan, net_chaos_plans, standard_chaos_plan
from repro.core.mempool import AdmissionVerdict, Transaction, TxBatch
from repro.core.messages import ClientReply, ClientRequest
from repro.errors import ConfigError
from repro.runtime.framing import (
    FrameDecoder,
    FramingError,
    decode_hello,
    encode_frame,
    encode_hello,
)
from repro.tee.sealed import DurableState
from tests.core.test_codec import ALL_MESSAGES, RECORDS, durable_state

#: Input that blows a recursive parser's stack.
DEEP = b"[" * 100_000


def _feed(data):
    # A small cap, so hostile length prefixes reach the refusal.
    return FrameDecoder(max_frame_bytes=4096).feed(data)


def _columns():
    """Columns with and without zero runs, filler and client records mixed."""
    mixed = [Transaction(-1, 0, 0), Transaction(3, 9, 40, 1.5, 7), Transaction(4, 1, 0, fee=2)]
    return [
        encode_fields((Column(),), (TxBatch.of(txs),))
        for txs in (mixed, [Transaction(-1, i, 0) for i in range(12)], mixed[1:2] * 3)
    ]


def _records_of(data):
    """A peer frame decoded, and a packed one's records built, as a host does."""
    message = decode_message(data)
    return list(message) if isinstance(message, Packed) else message


def _packed_requests():
    """Packed requests with and without zero runs."""
    return [
        encode_message(ClientRequests.of(
            [ClientRequest(3, Transaction(3, i, size, 0.5, i)) for i, size in enumerate(sizes)]
        ))
        for sizes in ((0, 40, 0, 7), (0, 0, 0))
    ]


def _packed_replies():
    verdicts = list(AdmissionVerdict)
    return [encode_message(ClientReplies.of(
        [ClientReply(i % 3, 4, i, 2.5, verdicts[i % len(verdicts)]) for i in range(5)]
    ))]


def _specs():
    plans = [standard_chaos_plan(4, 1), *net_chaos_plans(4).values()]
    return [plan.rules_spec().encode() for plan in plans]


#: name -> (decoder, valid inputs to mutate, the one error it may raise)
TARGETS = {
    "decode_message": (decode_message, [encode_message(m) for m in ALL_MESSAGES], CodecError),
    **{
        f"decode_record[{type(record).__name__}]": (
            partial(decode_record, type(record)), [encode_record(record)], CodecError
        )
        for record in RECORDS
    },
    # A checker-bearing and a checker-less replica's record.
    "decode_record[DurableState]": (
        partial(decode_record, DurableState),
        [encode_record(durable_state()), encode_record(durable_state(sealed=False))],
        CodecError,
    ),
    "decode_fields[Column]": (partial(decode_fields, (Column(),)), _columns(), CodecError),
    "decode_message[ClientRequests]": (_records_of, _packed_requests(), CodecError),
    "decode_message[ClientReplies]": (_records_of, _packed_replies(), CodecError),
    "decode_hello": (decode_hello, [encode_hello(3)[4:], encode_hello(0)[4:]], FramingError),
    "FrameDecoder.feed": (
        _feed, [b"".join(encode_frame(encode_message(m)) for m in ALL_MESSAGES[:6])], FramingError
    ),
    "FaultPlan.from_rules_spec": (FaultPlan.from_rules_spec, _specs(), ConfigError),
}


@st.composite
def hostile(draw, seeds):
    """A valid input of the decoder, mutated a few times over."""
    data = bytearray(draw(st.sampled_from([*seeds, DEEP])))
    ops = st.sampled_from(("truncate", "flip", "splice", "garbage"))
    for op in draw(st.lists(ops, min_size=1, max_size=4)):
        if op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif op == "garbage":
            data = bytearray(draw(st.binary(max_size=300)))
        elif data and op == "flip":
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        elif data:
            start = draw(st.integers(0, len(data)))
            data[start : start + draw(st.integers(0, 8))] = draw(st.binary(max_size=8))
    return bytes(data)


def outcome(decode, data, allowed):
    """What the decoder makes of ``data``; any other error escapes."""
    try:
        return "decoded", repr(decode(data))
    except allowed as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("name", TARGETS)
@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_hostile_bytes_raise_only_the_boundary_error(name, data):
    decode, seeds, allowed = TARGETS[name]
    bytes_in = data.draw(hostile(seeds))
    assert outcome(decode, bytes_in, allowed) == outcome(decode, bytes_in, allowed)


@pytest.mark.parametrize("name", TARGETS)
def test_every_target_decodes_its_seeds_and_refuses_deep_nesting(name):
    decode, seeds, allowed = TARGETS[name]
    for seed in seeds:
        decode(seed)
    with pytest.raises(allowed):
        decode(DEEP)


@pytest.mark.parametrize("data", [*_packed_requests(), *_packed_replies()],
                         ids=["requests-zero-runs", "requests", "replies"])
def test_a_packed_frame_that_lies_is_a_codec_error(data):
    count = int.from_bytes(data[1:5], "little")
    lies = {
        "a count one past the records": data[:1] + (count + 1).to_bytes(4, "little") + data[5:],
        "a count far past the frame": data[:1] + (2**32 - 1).to_bytes(4, "little") + data[5:],
        "a truncated record": data[:-3],
        "a record too many bytes": data + b"\x00",
    }
    if data[0] == 19:  # a request's zero run, longer than the rest of the frame
        lies["a zero run past the end"] = data[:29] + (1 << 20).to_bytes(4, "little") + data[33:]
    else:  # a reply's verdict no build knows
        lies["an unknown verdict"] = data[:-1] + b"\xff"
    for lie, wrong in lies.items():
        with pytest.raises(CodecError):
            _records_of(wrong)
        assert wrong != data, lie
