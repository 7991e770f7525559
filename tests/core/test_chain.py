"""Tests for the block store and ancestry relations (Section 5)."""

import pytest

from repro.errors import ProtocolError
from repro.core.block import create_leaf
from repro.core.chain import BlockStore
from repro.core.mempool import Transaction


def tx(i):
    return Transaction(client_id=0, tx_id=i, payload_bytes=0)


@pytest.fixture
def store():
    return BlockStore()


def chain_of(store, length, start_parent=None, tag=0):
    """Build and insert a linear chain; returns the block list."""
    parent = start_parent if start_parent is not None else store.genesis.hash
    blocks = []
    for i in range(length):
        block = create_leaf(parent, i + 1, (tx(tag * 1000 + i),))
        store.add(block)
        blocks.append(block)
        parent = block.hash
    return blocks


def test_genesis_present(store):
    assert store.genesis.hash in store
    assert len(store) == 1


def test_add_and_get(store):
    [b] = chain_of(store, 1)
    assert store.get(b.hash) is b
    assert store.get(b"\x00" * 32) is None


def test_add_idempotent(store):
    [b] = chain_of(store, 1)
    store.add(b)
    assert len(store) == 2


def test_is_ancestor_reflexive(store):
    [b] = chain_of(store, 1)
    assert store.is_ancestor(b.hash, b.hash)


def test_ancestry_along_chain(store):
    blocks = chain_of(store, 5)
    assert store.is_ancestor(store.genesis.hash, blocks[-1].hash)
    assert store.is_ancestor(blocks[0].hash, blocks[4].hash)
    assert not store.is_ancestor(blocks[4].hash, blocks[0].hash)


def test_conflicts_on_forks(store):
    main = chain_of(store, 3, tag=1)
    fork = chain_of(store, 2, start_parent=main[0].hash, tag=2)
    # Section 5: two blocks conflict when neither extends the other.
    assert not store.is_ancestor(main[2].hash, fork[1].hash)
    assert not store.is_ancestor(fork[1].hash, main[2].hash)
    assert store.is_ancestor(main[0].hash, fork[1].hash)


def test_path_between(store):
    blocks = chain_of(store, 4)
    path = store.path_between(blocks[0].hash, blocks[3].hash)
    assert [b.hash for b in path] == [b.hash for b in blocks[1:]]


def test_path_between_adjacent(store):
    blocks = chain_of(store, 2)
    path = store.path_between(blocks[0].hash, blocks[1].hash)
    assert len(path) == 1


def test_path_between_self_is_empty(store):
    blocks = chain_of(store, 2)
    assert store.path_between(blocks[1].hash, blocks[1].hash) == []


def test_path_between_rejects_non_descendant(store):
    main = chain_of(store, 2, tag=1)
    fork = chain_of(store, 2, tag=2)
    with pytest.raises(ProtocolError):
        store.path_between(main[1].hash, fork[1].hash)


def test_path_between_rejects_missing_blocks(store):
    # A child whose parent was never inserted.
    orphan_parent = create_leaf(store.genesis.hash, 1, (tx(1),))
    orphan = create_leaf(orphan_parent.hash, 2, (tx(2),))
    store.add(orphan)
    with pytest.raises(ProtocolError):
        store.path_between(store.genesis.hash, orphan.hash)


def test_blocks_at_view_tracks_equivocation(store):
    b1 = create_leaf(store.genesis.hash, 1, (tx(1),))
    b2 = create_leaf(store.genesis.hash, 1, (tx(2),))
    store.add(b1)
    store.add(b2)
    assert len(store.blocks_at_view(1)) == 2
    assert store.blocks_at_view(9) == []


def test_ancestry_stops_at_unknown_parent(store):
    detached = create_leaf(b"\x42" * 32, 3, (tx(1),))
    store.add(detached)
    assert not store.is_ancestor(store.genesis.hash, detached.hash)
