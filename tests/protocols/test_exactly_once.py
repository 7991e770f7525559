"""Every client transaction takes effect once, whatever the network does.

All seven protocols, Poisson clients broadcasting to every replica, on a
clean network, around a crash + restart, and over 5 % lossy links: no key
is applied twice in any replica's chain, no replica answers a transaction
twice at execution time, and the strict oracle (which checks the same
property across replicas) stays silent.  On the clean plan the stronger
statement holds: the chain *carries* each key once, so the ledger's
filter never has to act.
"""

from collections import Counter

import pytest

from repro.core.block import create_leaf
from repro.core.faults import FaultPlan
from repro.core.mempool import Transaction
from repro.core.messages import ClientReply
from repro.protocols.registry import SPECS
from repro.runtime.effects import Commit, Send
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config

CLIENTS = 4
REQUESTS = 50

PLANS = {
    "clean": lambda: None,
    "crash-restart": lambda: FaultPlan().crash(1, at_ms=150.0, recover_at_ms=700.0),
    "lossy": lambda: FaultPlan().lossy_links(0.05, end_ms=900.0),
}


def watch_execution_replies(system):
    """Count the replies each replica sends in the batch that commits a block.

    A reply to a late copy of a request (already applied, answered again)
    leaves in a batch without a ``Commit`` and is not an execution reply.
    """
    counts = Counter()
    for replica in system.replicas:
        def execute(effects, inner=replica.runtime.execute, pid=replica.pid):
            if any(type(effect) is Commit for effect in effects):
                for effect in effects:
                    if type(effect) is Send and isinstance(effect.payload, ClientReply):
                        counts[pid, effect.payload.client_id, effect.payload.tx_id] += 1
            inner(effects)

        replica.runtime.execute = execute
    return counts


def run(protocol, plan_name):
    config = small_config(
        protocol,
        open_loop=False,
        num_clients=CLIENTS,
        client_interval_ms=10.0,
        client_poisson=True,
        client_total_txs=REQUESTS,
        block_size=20,
        timeout_ms=250.0,
    )
    system = ConsensusSystem(config, strict_safety=True)
    plan = PLANS[plan_name]()
    if plan is not None:
        system.apply_fault_plan(plan)
    replies = watch_execution_replies(system)
    system.start()
    total = CLIENTS * REQUESTS
    while system.sim.now < 30_000.0 and (
        sum(len(client.completed) + client.dropped for client in system.clients) < total
    ):
        system.run(100.0)
    system.run(1_500.0)  # let every replica execute what the fastest one has
    return system, replies


def applications(replica):
    ledger = replica.ledger
    return Counter(
        tx.key
        for block in ledger.executed
        for tx in ledger.applied_transactions(block)
        if tx.client_id >= 0
    )


@pytest.mark.parametrize("plan_name", PLANS)
@pytest.mark.parametrize("protocol", SPECS)
def test_every_completed_transaction_is_applied_once(protocol, plan_name):
    system, replies = run(protocol, plan_name)
    assert system.oracle.safe
    completed = {
        (client.client_id, record.tx_id)
        for client in system.clients
        for record in client.completed
    }
    assert len(completed) == sum(len(client.completed) for client in system.clients)
    assert completed, "nothing completed"
    tallest = max(replica.ledger.height() for replica in system.replicas)
    for replica in system.replicas:
        applied = applications(replica)
        assert set(applied.values()) <= {1}, f"replica {replica.pid} applied a key twice"
        if replica.ledger.height() == tallest:
            assert completed <= set(applied)
    assert set(replies.values()) == {1}, "a replica answered a transaction twice"
    if plan_name == "clean":
        assert len(completed) == CLIENTS * REQUESTS
        for replica in system.replicas:
            carried = Counter(
                key for block in replica.ledger.executed for key in block.client_keys()
            )
            assert set(carried.values()) == {1}
            assert len(carried) == CLIENTS * REQUESTS
            assert replica.ledger.filtered == 0
            assert replica.mempool.pending() == 0


def test_block_recarrying_an_applied_key_is_not_answered_twice():
    """Hand-built: the second block carries key (0, 0) again plus a new one."""
    system = ConsensusSystem(small_config("damysus", open_loop=False, num_clients=1))
    replica = system.replicas[0]
    first = create_leaf(replica.store.genesis.hash, 1, (Transaction(0, 0, 0),))
    second = create_leaf(first.hash, 2, (Transaction(0, 0, 0), Transaction(0, 1, 0)))
    for block in (first, second):
        replica.store.add(block)
        replica.mempool.add(block.transactions[-1])

    def replies(effects):
        return [
            (effect.payload.tx_id, effect.payload.verdict.value)
            for effect in effects
            if type(effect) is Send and isinstance(effect.payload, ClientReply)
        ]

    flushed = []
    replica.runtime.execute = flushed.extend  # execute_block is an entry point
    replica.execute_block(first, 1)
    assert replies(flushed) == [(0, "accepted")]
    flushed.clear()
    replica.execute_block(second, 2)
    assert replies(flushed) == [(1, "accepted")]
    assert replica.ledger.filtered == 1
    assert replica.mempool.pending() == 0 and replica.mempool.stats()["purged"] == 2
    [_, record] = system.monitor.executions
    assert record.num_transactions == 1


class TickingClock:
    """A wall clock at its worst: every read is a microsecond later."""

    def __init__(self):
        self.reads = 0

    @property
    def now(self):
        self.reads += 1
        return 1_000.0 + self.reads * 0.001


def test_every_reply_of_one_execution_carries_one_commit_timestamp():
    """``executed_at`` is the commit timestamp: one clock read per executed
    block (here two blocks, the parent executed with its child), however
    many replies it sends and however far the clock moves meanwhile."""
    system = ConsensusSystem(small_config("damysus", open_loop=False, num_clients=1))
    replica = system.replicas[0]
    parent = create_leaf(
        replica.store.genesis.hash, 1, tuple(Transaction(0, i, 0) for i in range(8))
    )
    child = create_leaf(parent.hash, 2, tuple(Transaction(0, i, 0) for i in range(8, 16)))
    for block in (parent, child):
        replica.store.add(block)
    replica.clock = TickingClock()
    flushed = []
    replica.runtime.execute = flushed.extend
    replica.execute_block(child, 2)
    stamps = [
        effect.payload.executed_at
        for effect in flushed
        if type(effect) is Send and isinstance(effect.payload, ClientReply)
    ]
    assert len(stamps) == 16
    assert set(stamps) == {system.monitor.executions[-1].executed_at}
