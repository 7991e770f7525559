"""What a replica keeps of a committed transaction: bytes, not records.

Every replica keeps every block, so a tracked ``Transaction`` per carried
transaction would make the cycle collector's full passes walk the whole
history.  A block keeps its transactions as one packed column
(:class:`~repro.core.mempool.TxBatch`); the records live only while a
pool, a client or a message in flight holds them.
"""

import gc
from types import FunctionType, ModuleType

from repro.core.mempool import Transaction
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def _transactions_reachable(*roots):
    """Transaction records reachable from ``roots`` through data (not
    through classes, functions or modules, which reach everything)."""
    seen, stack, found = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        found += type(obj) is Transaction
        stack.extend(gc.get_referents(obj))
    return found


def test_committed_transactions_are_retained_as_bytes_only():
    config = small_config(
        "damysus", open_loop=False, num_clients=4, client_interval_ms=2.0, block_size=50
    )
    system = ConsensusSystem(config)
    system.run(1_500.0)
    committed = sum(len(client.completed) for client in system.clients)
    assert committed >= 500
    for replica in system.replicas:
        assert _transactions_reachable(replica.store, replica.ledger) == 0
        blocks = replica.ledger.executed
        assert sum(len(block.transactions) for block in blocks) >= committed // 2
        assert not any(gc.is_tracked(block.transactions.packed) for block in blocks)
    gc.collect()
    live = sum(type(obj) is Transaction for obj in gc.get_objects())
    # What pools and clients still hold bounds the records, not the commits.
    pending = sum(replica.mempool.pending() for replica in system.replicas)
    inflight = sum(len(client._inflight) for client in system.clients)
    assert live <= pending + inflight
    assert live < committed // 10


def test_a_chain_keeps_the_columns_below_its_newest_execution_stowed():
    """Past its execution a block's column is read only to serve a peer
    that catches up, so the ledger stows it: held compressed, read the
    same."""
    config = small_config(
        "damysus", open_loop=False, num_clients=4, client_interval_ms=2.0, block_size=50
    )
    system = ConsensusSystem(config)
    system.run(1_500.0)
    for replica in system.replicas:
        *below, _newest = replica.ledger.executed
        full = [block for block in below if len(block.transactions) >= 16]
        assert full and all(block.transactions._stowed for block in full)
        assert all(
            len(block.transactions._column) < len(block.transactions.packed) for block in full
        )
