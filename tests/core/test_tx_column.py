"""The block's transaction column keeps every contract the records had.

A block holds its transactions as one packed :class:`TxBatch`.  Whatever
it is built from, iterating, indexing and the sizes, keys, bytes and
digest read off it must equal what a tuple of ``Transaction`` records
gave - each written out here as it was defined before the column.  The
same ``Column`` kind carries a packed frame's client rows
(:class:`~repro.core.codec.Packed`), held to the same contract against
``Seq`` of the row.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BLOCK_HEADER_BYTES, create_leaf
from repro.core.codec import (
    PACKED,
    Column,
    CodecError,
    Seq,
    decode_fields,
    decode_message,
    encode_fields,
    encode_message,
    message_rows,
)
from repro.core.mempool import (
    SYNTHETIC_CLIENT_ID,
    TX_RECORD,
    AdmissionVerdict,
    Transaction,
    TxBatch,
    payload_digest,
)
from repro.core.messages import ClientReply, ClientRequest
from repro.crypto.hashing import hash_fields
from repro.mempool.pool import PriorityMempool

I64 = st.integers(-(2**63), 2**63 - 1)
IDS = st.one_of(st.sampled_from([SYNTHETIC_CLIENT_ID, 0, 1, 2**63 - 1, -(2**63)]), I64)
TXS = st.lists(
    st.builds(
        Transaction,
        IDS,
        IDS,
        st.one_of(st.sampled_from([0, 1, 256, 1024]), st.integers(0, 2**32 - 1)),
        st.floats(allow_nan=False),
        I64,
    ),
    max_size=80,
).map(tuple)
#: Payload sizes small enough to encode (every zero byte is written).
ENCODABLE = TXS.map(lambda txs: tuple(tx._replace(payload_bytes=tx.payload_bytes % 2048) for tx in txs))

_COUNT = struct.Struct("<I")


def seq_bytes(txs):
    """``Seq(Transaction)`` as the wire spelled it: a count, then each
    record and its zero run."""
    return _COUNT.pack(len(txs)) + b"".join(
        TX_RECORD.pack(*tx) + bytes(tx.payload_bytes) for tx in txs
    )


@given(txs=TXS)
@settings(max_examples=200, deadline=None)
def test_the_column_reads_back_the_records_it_was_built_from(txs):
    batch = TxBatch.of(txs)
    assert len(batch) == len(txs) and bool(batch) == bool(txs)
    assert tuple(batch) == txs
    assert all(type(tx) is Transaction for tx in batch)
    assert [batch[i] for i in range(len(txs))] == list(txs)
    assert [batch[-i] for i in range(1, len(txs) + 1)] == list(txs[::-1])
    for out_of_range in (len(txs), -len(txs) - 1):
        with pytest.raises(IndexError):
            batch[out_of_range]
    assert TxBatch.of(batch) == batch and hash(TxBatch.of(batch)) == hash(batch)


@given(txs=TXS)
@settings(max_examples=200, deadline=None)
def test_sizes_keys_and_digest_equal_the_record_definitions(txs):
    block = create_leaf(b"\x07" * 32, 3, txs)
    assert type(block.transactions) is TxBatch
    assert block.wire_size() == BLOCK_HEADER_BYTES + sum(
        tx.payload_bytes + 40 for tx in txs
    )
    assert block.client_keys() == tuple(
        (tx.client_id, tx.tx_id) for tx in txs if tx.client_id != SYNTHETIC_CLIENT_ID
    )
    assert payload_digest(block.transactions) == hash_fields(
        tuple((tx.client_id, tx.tx_id, tx.payload_bytes, tx.fee) for tx in txs)
    )
    assert create_leaf(b"\x07" * 32, 3, TxBatch.of(txs)).hash == block.hash


@given(txs=ENCODABLE)
@settings(max_examples=200, deadline=None)
def test_the_column_is_seq_transaction_on_the_wire(txs):
    batch = TxBatch.of(txs)
    data = encode_fields((Column(),), (batch,))
    assert data == seq_bytes(txs) == encode_fields((Seq(Transaction),), (txs,))
    assert decode_fields((Column(),), data) == [batch]


#: One client's traffic - small ids counting up, zero sizes and fees - which
#: is most of what a chain keeps, and what stows smaller than it is.
CLIENT_RUNS = st.builds(
    lambda client, first, count: tuple(
        Transaction(client, first + i, 0, 0.25 * (first + i)) for i in range(count)
    ),
    st.integers(0, 16),
    st.integers(0, 2**40),
    st.integers(0, 80),
)


@given(txs=st.one_of(ENCODABLE, CLIENT_RUNS))
@settings(max_examples=200, deadline=None)
def test_a_stowed_column_keeps_every_contract(txs):
    raw, stowed = TxBatch.of(txs), TxBatch.of(txs)
    stowed.stow()
    stowed.stow()
    assert stowed.packed == raw.packed and bytes(stowed) == bytes(raw)
    assert len(stowed) == len(txs) and tuple(stowed) == txs
    assert [stowed[i] for i in range(len(txs))] == list(txs)
    assert stowed.client_keys() == raw.client_keys()
    assert stowed.payload_sizes() == raw.payload_sizes()
    assert stowed.wire_size() == raw.wire_size()
    assert stowed == raw and raw == stowed and hash(stowed) == hash(raw)
    assert payload_digest(stowed) == payload_digest(raw)
    assert create_leaf(b"\x07" * 32, 3, stowed).hash == create_leaf(b"\x07" * 32, 3, raw).hash
    assert encode_fields((Column(),), (stowed,)) == encode_fields((Column(),), (raw,))


def test_one_clients_traffic_stows_in_under_a_third_of_its_bytes():
    batch = TxBatch.of(Transaction(1, i, 0, 0.25 * i) for i in range(256))
    size = len(batch.packed)
    batch.stow()
    assert batch._stowed and 3 * len(batch._column) < size
    # A column that compression would not shrink stays as it is.
    lone = TxBatch.of([Transaction(0x1234567890ABCDEF, -0x0FEDCBA987654321, 0xDEADBEEF, 0.1, 0x7A5B3C1D2E4F6081)])
    lone.stow()
    assert not lone._stowed and lone._column is lone.packed


def test_a_truncated_zero_run_is_a_codec_error():
    data = encode_fields((Column(),), (TxBatch.of([Transaction(1, 2, 300), Transaction(1, 3, 9)]),))
    for cut in (1, 9, 10, 40):
        with pytest.raises(CodecError):
            decode_fields((Column(),), data[:-cut])


@pytest.mark.parametrize(
    "bad",
    [
        Transaction(2**63, 0, 0),
        Transaction(0, -(2**63) - 1, 0),
        Transaction(0, 0, -1),
        Transaction(0, 0, 2**32),
        Transaction(0, 0, 0, fee=2**64),
        Transaction(0, 0, 0, submitted_at="soon"),
    ],
)
def test_a_field_outside_its_wire_range_is_refused_by_name_when_the_block_is_built(bad):
    with pytest.raises(CodecError, match="out of range"):
        create_leaf(b"\x07" * 32, 1, (Transaction(0, 0, 0), bad))
    # The simulator's leaders build blocks from their pools the same way.
    pool = PriorityMempool(payload_bytes=0, block_size=4, open_loop=False)
    pool.add(bad)
    with pytest.raises(CodecError, match="out of range"):
        pool.take_block(0.0)


def test_a_column_is_whole_records():
    with pytest.raises(CodecError):
        TxBatch(b"\x00" * (TX_RECORD.size + 1))


# -- the same column for a packed frame's client rows ----------------------------

REQUESTS = ENCODABLE.map(lambda txs: tuple(ClientRequest(tx.client_id, tx) for tx in txs))
REPLIES = st.lists(
    st.builds(ClientReply, I64, I64, I64, st.floats(allow_nan=False),
              st.sampled_from(list(AdmissionVerdict))),
    max_size=80,
).map(tuple)


@given(rows=st.one_of(REQUESTS, REPLIES))
@settings(max_examples=200, deadline=None)
def test_a_packed_message_is_seq_of_its_row_and_reads_back_its_rows(rows):
    row = type(rows[0]) if rows else ClientReply
    packed = PACKED[row].of(rows)
    assert len(packed) == len(rows) and tuple(packed) == rows
    assert all(type(record) is row for record in packed)
    data = encode_message(packed)
    assert data[1:] == encode_fields((Seq(row),), (rows,))
    assert decode_message(data) == packed and message_rows(data) == len(rows)
    assert decode_fields((Column(row, bytes),), data[1:]) == [packed.packed]


def test_a_packed_message_refuses_a_field_out_of_range_and_a_partial_record():
    for cls, bad in ((ClientReply, ClientReply(0, 0, 2**63, 0.0)),
                     (ClientRequest, ClientRequest(0, Transaction(0, 0, -1)))):
        with pytest.raises(CodecError, match="out of range"):
            PACKED[cls].of([bad])
        whole = PACKED[cls].of([]).packed
        with pytest.raises(CodecError):
            PACKED[cls](whole + b"\x00")


def test_any_other_message_counts_as_one():
    assert message_rows(encode_message(ClientReply(0, 1, 2, 0.5))) == 1
    assert message_rows(b"") == 1
