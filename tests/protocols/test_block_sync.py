"""Tests for block synchronization (fetching bodies a leader withheld)."""

import pytest

from repro.core.block import create_leaf
from repro.core.mempool import Transaction
from repro.core.messages import BlockRequest, BlockResponse
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def tx(i):
    return Transaction(client_id=0, tx_id=i, payload_bytes=0)


@pytest.fixture
def system():
    # Deliberately not started: replicas are wired to the network but run
    # no consensus, so tests can inject blocks without the live protocol
    # racing them.
    return ConsensusSystem(small_config("damysus"))


def test_block_request_answered_from_store(system):
    replica0, replica1 = system.replicas[0], system.replicas[1]
    block = create_leaf(replica0.store.genesis.hash, 99, (tx(1),))
    replica0.store.add(block)
    replies = []
    system.network.add_tap(
        lambda src, dst, p: replies.append(p) if isinstance(p, BlockResponse) else None
    )
    replica1.send(0, BlockRequest(block.hash))
    system.sim.run(until=system.sim.now + 50.0)
    assert any(r.block.hash == block.hash for r in replies)
    assert block.hash in replica1.store


def test_unknown_block_request_is_ignored(system):
    replica1 = system.replicas[1]
    replies = []
    system.network.add_tap(
        lambda src, dst, p: replies.append(p) if isinstance(p, BlockResponse) else None
    )
    replica1.send(0, BlockRequest(b"\x77" * 32))
    system.sim.run(until=system.sim.now + 50.0)
    assert replies == []


def test_missing_ancestor_parks_execution_and_fetches(system):
    """Executing a block with an unknown parent triggers a fetch."""
    replica0, replica1 = system.replicas[0], system.replicas[1]
    last = replica1.ledger.last_executed_hash
    hidden = create_leaf(last, 97, (tx(1),))
    child = create_leaf(hidden.hash, 98, (tx(2),))
    # Only replica 0 holds the hidden block; replica 1 sees just the child.
    replica0.store.add(hidden)
    replica1.store.add(child)
    height_before = replica1.ledger.height()
    replica1.execute_block(child, 98)
    assert replica1.ledger.height() == height_before  # parked
    system.sim.run(until=system.sim.now + 100.0)
    # The fetch completed and the parked execution went through.
    assert hidden.hash in replica1.store
    assert replica1.ledger.is_executed(child.hash)


def test_equivocation_starved_replicas_catch_up_via_sync():
    """End-to-end: a Byzantine leader withholds a committed block body.

    The replicas that never received the block must still end up with the
    complete executed chain, fetched from peers.
    """
    from repro.adversary import get_adversary

    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250),
        replica_overrides={1: get_adversary("equivocate").replica_class("damysus")},
    )
    result = system.run_until_views(5, max_time_ms=300_000)
    assert result.safe
    heights = [r.ledger.height() for r in system.replicas]
    assert max(heights) >= 5
    # No replica is left permanently stuck: everyone within 2 blocks.
    assert min(heights) >= max(heights) - 2
