"""Tests for transactions and the mempool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mempool as mempool_mod
from repro.core.mempool import (
    SYNTHETIC_CLIENT_ID,
    TX_METADATA_BYTES,
    Transaction,
    TxBatch,
    payload_digest,
)
from repro.crypto.hashing import hash_fields, sha256
from repro.mempool.pool import PriorityMempool
from tests.crypto.test_hashing import spec_encoding


def _digested(tx):
    """The fields of a transaction the payload digest covers."""
    return (tx.client_id, tx.tx_id, tx.payload_bytes, tx.fee)


def test_tx_wire_size_includes_metadata():
    assert Transaction(0, 1, payload_bytes=256).wire_size() == 256 + TX_METADATA_BYTES
    assert Transaction(0, 1, payload_bytes=0).wire_size() == 40  # paper Section 8


def test_payload_digest_depends_on_contents():
    txs1 = TxBatch.of((Transaction(0, 1, 0), Transaction(0, 2, 0)))
    txs2 = TxBatch.of((Transaction(0, 1, 0), Transaction(0, 3, 0)))
    assert payload_digest(txs1) != payload_digest(txs2)
    assert payload_digest(txs1) == payload_digest(txs1)


def test_payload_digest_cache_evicts_oldest_half():
    """The digest cache is bounded and sheds its *oldest* entries.

    Regression: an unbounded (or wholesale-cleared) cache either grows
    without limit under synthetic open-loop load or drops the hot recent
    tuples a live chain keeps re-hashing.
    """
    cache = mempool_mod._PAYLOAD_DIGEST_CACHE
    cache_max = mempool_mod._DIGEST_CACHE_MAX
    cache.clear()
    columns = [TxBatch.of((Transaction(0, i, 0),)) for i in range(cache_max + 1)]
    for txs in columns:
        payload_digest(txs)
    # The insertion that overflowed evicted the oldest half first.
    assert len(cache) == cache_max // 2 + 1
    key = mempool_mod._memo_key
    assert key(columns[0].packed) not in cache
    assert key(columns[cache_max // 2 - 1].packed) not in cache
    assert key(columns[cache_max // 2].packed) in cache
    assert key(columns[-1].packed) in cache
    # Evicted columns still digest correctly (and re-enter the cache).
    assert payload_digest(columns[0]) == payload_digest(TxBatch.of((Transaction(0, 0, 0),)))
    cache.clear()


def test_the_digest_memo_pins_no_column():
    """The chain stows the columns it has executed; a memo keyed by the
    raw bytes would keep one raw copy of each alive all the same."""
    txs = TxBatch.of(Transaction(5, i, 0) for i in range(64))
    payload_digest(txs)
    cache = mempool_mod._PAYLOAD_DIGEST_CACHE
    assert mempool_mod._memo_key(txs.packed) in cache
    assert not any(key == txs.packed for key in cache)
    assert max(map(len, cache)) < len(txs.packed)


@pytest.mark.parametrize("count", [0, 1, 128])
def test_payload_digest_memo_is_the_hash_beneath_it(count):
    """Miss, hit, and a column equal to a cached one but not the same object
    (what every decoded block hands in) all read the plain hash."""
    def build():
        return TxBatch.of(
            Transaction(3, i, 16, submitted_at=0.5 * i, fee=i % 7) for i in range(count)
        )

    txs, twin = build(), build()
    assert twin == txs and (count == 0 or twin.packed is not txs.packed)
    expected = hash_fields(tuple(map(_digested, txs)))
    mempool_mod._PAYLOAD_DIGEST_CACHE.pop(mempool_mod._memo_key(txs.packed), None)
    assert payload_digest(txs) == expected  # miss
    assert payload_digest(txs) == expected  # hit, same object
    assert payload_digest(twin) == expected


#: Ids the digest must take: the filler's, negatives, zero, and both ends of
#: the wire's 64 bits (a column holds nothing wider; ``hash_fields`` past 64
#: bits is ``tests/crypto/test_hashing.py``'s).
_IDS = st.one_of(
    st.sampled_from([SYNTHETIC_CLIENT_ID, 0, 2**63 - 1, -(2**63)]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)


@given(rows=st.lists(st.tuples(_IDS, _IDS, st.integers(0, 2**32 - 1), _IDS), max_size=24))
@settings(max_examples=150, deadline=None)
def test_flat_payload_digest_is_the_nested_hash(rows):
    txs = TxBatch.of(Transaction(c, t, p, submitted_at=0.5, fee=f) for c, t, p, f in rows)
    nested = tuple(map(_digested, txs))
    mempool_mod._PAYLOAD_DIGEST_CACHE.pop(mempool_mod._memo_key(txs.packed), None)
    assert payload_digest(txs) == hash_fields(nested) == sha256(spec_encoding(nested))


def test_payload_digest_differs_by_fee():
    assert payload_digest(TxBatch.of((Transaction(0, 1, 0, fee=1),))) != payload_digest(
        TxBatch.of((Transaction(0, 1, 0, fee=2),))
    )


def test_open_loop_blocks_are_full():
    pool = PriorityMempool(payload_bytes=16, block_size=7, open_loop=True)
    block = pool.take_block(now=0.0)
    assert len(block) == 7
    assert all(tx.payload_bytes == 16 for tx in block)


def test_open_loop_synthetic_ids_unique():
    pool = PriorityMempool(payload_bytes=0, block_size=5, open_loop=True)
    ids = [tx.tx_id for tx in (*pool.take_block(0.0), *pool.take_block(0.0))]
    assert len(set(ids)) == 10


def test_closed_loop_blocks_limited_to_queue():
    pool = PriorityMempool(payload_bytes=0, block_size=5, open_loop=False)
    pool.add(Transaction(1, 1, 0))
    pool.add(Transaction(1, 2, 0))
    block = pool.take_block(0.0)
    assert len(block) == 2
    assert pool.pending() == 0
    assert pool.take_block(0.0) == TxBatch()


def test_closed_loop_respects_block_size():
    pool = PriorityMempool(payload_bytes=0, block_size=3, open_loop=False)
    for i in range(10):
        pool.add(Transaction(1, i, 0))
    assert len(pool.take_block(0.0)) == 3
    assert pool.pending() == 7


def test_open_loop_prefers_queued_client_txs():
    pool = PriorityMempool(payload_bytes=0, block_size=3, open_loop=True)
    pool.add(Transaction(7, 99, 0))
    block = pool.take_block(0.0)
    assert block[0].client_id == 7
    assert len(block) == 3
