"""Tests for blocks and the extension relation."""

from repro.core.block import (
    BLOCK_HEADER_BYTES,
    create_chain,
    create_leaf,
    genesis_block,
)
from repro.core.certificate import genesis_qc
from repro.core.mempool import Transaction


def tx(i, payload=0):
    return Transaction(client_id=0, tx_id=i, payload_bytes=payload)


def test_genesis_is_stable():
    assert genesis_block().hash == genesis_block().hash
    assert genesis_block().is_genesis


def test_create_leaf_extends_parent():
    g = genesis_block()
    b = create_leaf(g.hash, 1, (tx(1),))
    assert b.extends(g.hash)
    assert b.parent == g.hash
    assert not b.extends(b.hash)


def test_hash_depends_on_contents():
    g = genesis_block()
    b1 = create_leaf(g.hash, 1, (tx(1),))
    b2 = create_leaf(g.hash, 1, (tx(2),))
    b3 = create_leaf(g.hash, 2, (tx(1),))
    assert len({b1.hash, b2.hash, b3.hash}) == 3


def test_equal_content_equal_hash():
    g = genesis_block()
    assert create_leaf(g.hash, 1, (tx(1),)).hash == create_leaf(g.hash, 1, (tx(1),)).hash


def test_wire_size_counts_transactions_and_metadata():
    g = genesis_block()
    b = create_leaf(g.hash, 1, tuple(tx(i, payload=256) for i in range(400)))
    assert b.wire_size() == BLOCK_HEADER_BYTES + 400 * (256 + 40)


def test_paper_block_sizes():
    """Section 8: 0B payloads -> 15.6KiB blocks; 256B -> 115.6KiB blocks."""
    g = genesis_block()
    b0 = create_leaf(g.hash, 1, tuple(tx(i, payload=0) for i in range(400)))
    b256 = create_leaf(g.hash, 1, tuple(tx(i, payload=256) for i in range(400)))
    assert b0.wire_size() - BLOCK_HEADER_BYTES == 400 * 40  # 15.6 KiB
    assert b256.wire_size() - BLOCK_HEADER_BYTES == 400 * 296  # 115.6 KiB


def test_create_chain_embeds_justification():
    g = genesis_block()
    qc = genesis_qc(g.hash)
    b = create_chain(qc, 1, (tx(1),))
    assert b.justify is qc
    assert b.parent == qc.hash
    assert b.wire_size() > create_leaf(g.hash, 1, (tx(1),)).wire_size()


def test_justification_contributes_to_hash():
    g = genesis_block()
    qc = genesis_qc(g.hash)
    chained = create_chain(qc, 1, (tx(1),))
    plain = create_leaf(g.hash, 1, (tx(1),))
    assert chained.hash != plain.hash


def test_num_transactions():
    g = genesis_block()
    assert create_leaf(g.hash, 1, tuple(tx(i) for i in range(7))).num_transactions() == 7
    assert genesis_block().num_transactions() == 0
