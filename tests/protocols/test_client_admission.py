"""Admission, both ends: the client's verdict accounting (histogram, drops,
retries), the replica's check of who may submit under a client id, and
its one pass over a packed frame of requests."""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.spammer import SPAM_CLIENT_BASE
from repro.core.codec import ClientRequests
from repro.core.mempool import SYNTHETIC_CLIENT_ID, AdmissionVerdict, Transaction
from repro.core.messages import ClientReply, ClientRequest
from repro.protocols.client import Client
from repro.runtime.asyncio_net import AsyncioRuntime, WallClock, build_machine
from repro.runtime.effects import Reply, Send
from repro.runtime.machine import Machine
from repro.runtime.sim import ConsensusSystem
from tests.conftest import client_replies, small_config


class FakeClock:
    def __init__(self):
        self.now = 0.0


def make_client(**kwargs):
    kwargs.setdefault("pid", 100)
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("client_id", 0)
    kwargs.setdefault("replica_pids", [0, 1, 2, 3])
    kwargs.setdefault("payload_bytes", 16)
    kwargs.setdefault("interval_ms", 1e9)  # one submission, then silence
    client = Client(**kwargs)
    client.start()
    return client


def nack(client, sender, tx_id, verdict):
    return client.on_message(
        sender, ClientReply(sender, client.client_id, tx_id, 0.0, verdict)
    )


def test_verdict_histogram_counts_every_reply():
    client = make_client()
    nack(client, 0, 0, AdmissionVerdict.ACCEPTED)
    nack(client, 1, 0, AdmissionVerdict.ACCEPTED)  # duplicate exec replies count
    nack(client, 2, 0, AdmissionVerdict.POOL_FULL)
    nack(client, 3, 0, AdmissionVerdict.RATE_LIMITED)
    assert client.verdicts["accepted"] == 2
    assert client.verdicts["pool-full"] == 1
    assert client.verdicts["rate-limited"] == 1
    assert client.verdicts["duplicate"] == 0


def test_partial_nack_keeps_transaction_inflight():
    client = make_client()
    for sender in range(3):  # 3 of 4 replicas refuse
        nack(client, sender, 0, AdmissionVerdict.POOL_FULL)
    assert client.dropped == 0
    assert 0 in client.submitted


def test_full_nack_drops_the_transaction():
    client = make_client()
    for sender in range(4):
        nack(client, sender, 0, AdmissionVerdict.POOL_FULL)
    assert client.dropped == 1
    assert 0 not in client.submitted
    assert client.submitted_total == 1 and not client.completed
    assert client.verdicts["pool-full"] == 4


def test_repeated_nacks_from_one_replica_do_not_drop():
    client = make_client()
    for _ in range(10):
        nack(client, 0, 0, AdmissionVerdict.RATE_LIMITED)
    assert client.dropped == 0


def test_full_nack_resubmits_within_retry_limit():
    client = make_client(retry_limit=1)
    effects = []
    for sender in range(4):
        effects = nack(client, sender, 0, AdmissionVerdict.RATE_LIMITED)
    # The final NACK triggered a rebroadcast of the same transaction...
    (send,) = [e for e in effects if isinstance(e, Send)]
    assert send.dests == (0, 1, 2, 3)
    assert send.payload.tx.tx_id == 0
    assert client.retried == 1
    assert client.dropped == 0
    # ...and a second full round of NACKs exhausts the budget: dropped.
    for sender in range(4):
        nack(client, sender, 0, AdmissionVerdict.RATE_LIMITED)
    assert client.dropped == 1


def test_acceptance_after_nacks_completes_normally():
    client = make_client()
    nack(client, 0, 0, AdmissionVerdict.POOL_FULL)
    nack(client, 1, 0, AdmissionVerdict.ACCEPTED)
    assert len(client.completed) == 1
    assert client.dropped == 0
    # Late NACKs for a completed transaction are ignored.
    nack(client, 2, 0, AdmissionVerdict.POOL_FULL)
    nack(client, 3, 0, AdmissionVerdict.POOL_FULL)
    assert client.dropped == 0


def test_replies_for_other_clients_ignored():
    client = make_client(client_id=5)
    client.on_message(0, ClientReply(0, 6, 0, 0.0, AdmissionVerdict.POOL_FULL))
    assert sum(client.verdicts.values()) == 0


# -- replica side: who may speak for a client id -------------------------------
#
# ``(client_id, tx_id)`` decides what is a duplicate, and clients number
# their requests sequentially - so a peer that could submit under another
# client's id would pre-empt its next key and have the real request
# filtered as a replay.


HONEST_PAYLOAD = 0
FORGED_PAYLOAD = 999
REQUESTS = 20


def client_system(**overrides):
    params = dict(
        open_loop=False,
        num_clients=1,
        client_interval_ms=5.0,
        client_total_txs=REQUESTS,
        block_size=10,
    )
    params.update(overrides)
    return ConsensusSystem(small_config("damysus", **params))


def forged(tx_id, client_id=0):
    return ClientRequest(client_id, Transaction(client_id, tx_id, FORGED_PAYLOAD))


def client_payloads(replica):
    return {
        tx.payload_bytes
        for block in replica.ledger.executed
        for tx in block.transactions
        if tx.client_id >= 0
    }


def test_request_whose_two_client_ids_differ_is_dropped():
    system = client_system()
    replica = system.replicas[0]
    client_pid = replica.client_pids[0]
    effects = replica.on_message(client_pid, ClientRequest(0, Transaction(5, 0, 16)))
    assert effects == [] and replica.mempool.pending() == 0
    effects = replica.on_message(client_pid, ClientRequest(5, Transaction(0, 0, 16)))
    assert effects == [] and replica.mempool.pending() == 0
    # Nor may anyone submit as the pool's filler, which is never deduplicated.
    effects = replica.on_message(client_pid, ClientRequest(-1, Transaction(-1, 0, 16)))
    assert effects == [] and replica.mempool.pending() == 0


def test_registered_client_id_is_only_accepted_from_its_own_pid():
    system = client_system()
    replica = system.replicas[0]
    client_pid = replica.client_pids[0]
    for impostor in (1, 2, client_pid + 1):
        assert replica.on_message(impostor, forged(0)) == []
    assert replica.mempool.pending() == 0
    assert replica.mempool.stats()["rejected_duplicate"] == 0
    replica.on_message(client_pid, ClientRequest(0, Transaction(0, 0, HONEST_PAYLOAD)))
    assert replica.mempool.pending() == 1  # the real request was not pre-empted


def test_unregistered_client_ids_stay_admissible():
    """The spammer's id range (and any id no client registered) has no
    pid to compare with; the rate limiter and the caps are its bound."""
    replica = client_system().replicas[0]
    replica.on_message(2, ClientRequest(SPAM_CLIENT_BASE + 2, Transaction(SPAM_CLIENT_BASE + 2, 0, 0)))
    assert replica.mempool.pending() == 1


def test_sim_peer_cannot_preempt_a_clients_keys():
    system = client_system()
    system.start()
    attacker = system.replicas[2]
    for tx_id in range(REQUESTS):
        for pid in (0, 1):
            attacker.send(pid, forged(tx_id))
    system.run(2_000.0)
    [client] = system.clients
    assert len(client.completed) == REQUESTS and client.dropped == 0
    for replica in system.replicas:
        assert client_payloads(replica) == {HONEST_PAYLOAD}
        assert replica.mempool.stats()["rejected_duplicate"] == 0


def test_request_for_an_applied_key_gets_the_committed_reply():
    """Not a DUPLICATE NACK: a client whose first replies were lost completes."""
    system = client_system()
    system.run(1_000.0)
    [client] = system.clients
    assert len(client.completed) == REQUESTS
    replica = system.replicas[0]
    late_copy = ClientRequest(0, Transaction(0, 3, HONEST_PAYLOAD))
    effects = replica.on_message(client.pid, late_copy)
    [(pid, reply)] = client_replies(effects)
    assert pid == client.pid
    assert (reply.client_id, reply.tx_id, reply.verdict) == (0, 3, AdmissionVerdict.ACCEPTED)
    assert replica.mempool.pending() == 0
    # A key still on its way is a plain duplicate.
    replica.mempool.admit(Transaction(0, REQUESTS, HONEST_PAYLOAD), system.sim.now)
    effects = replica.on_message(client.pid, ClientRequest(0, Transaction(0, REQUESTS, 0)))
    [(_pid, reply)] = client_replies(effects)
    assert reply.verdict is AdmissionVerdict.DUPLICATE


class Impostor(Machine):
    """A peer that submits under client 0's id before client 0 does."""

    def __init__(self, pid, clock, replica_pids):
        super().__init__(pid, clock)
        self.replica_pids = replica_pids

    def start(self):
        for tx_id in range(REQUESTS):
            for pid in self.replica_pids:
                self.send(pid, forged(tx_id))

    def on_message(self, sender, payload):
        pass


def test_tcp_peer_cannot_preempt_a_clients_keys():
    """The same refusal over real sockets: ``sender`` is the transport pid."""

    async def scenario():
        clock = WallClock()
        n = 3
        client_pids = {0: n}
        replicas = [
            build_machine(
                "damysus", pid, n, clock, payload_bytes=HONEST_PAYLOAD, block_size=10,
                client_pids=client_pids,
                config_overrides={"open_loop": False, "num_clients": 1},
            )
            for pid in range(n)
        ]
        client = Client(
            pid=n, clock=clock, client_id=0, replica_pids=list(range(n)),
            payload_bytes=HONEST_PAYLOAD, interval_ms=5.0, total_txs=REQUESTS,
        )
        impostor = Impostor(n + 1, clock, list(range(n)))
        # The impostor starts first, so its copies are on the wire first.
        runtimes = [AsyncioRuntime(machine) for machine in (*replicas, impostor, client)]
        addresses = {}
        for runtime in runtimes:
            addresses[runtime.machine.pid] = await runtime.start_server()
        try:
            for runtime in runtimes:
                runtime.set_peers(addresses)
            for runtime in runtimes:
                runtime.start_machine()
            deadline = clock.now + 20_000.0
            while len(client.completed) < REQUESTS and clock.now < deadline:
                await asyncio.sleep(0.02)
        finally:
            for runtime in runtimes:
                await runtime.close()
        return replicas, client

    replicas, client = asyncio.run(scenario())
    assert len(client.completed) == REQUESTS
    for replica in replicas:
        assert client_payloads(replica) <= {HONEST_PAYLOAD}
        assert replica.mempool.stats()["rejected_duplicate"] == 0
    assert any(client_payloads(replica) for replica in replicas)


# -- one admission pass per packed frame ----------------------------------------
#
# A socket host hands a replica a client's packed frame whole; the pass over
# it must give what the simulator's one request per delivery gives.

STRANGER = 5  # a pid no client id is registered to (client ids 0, 1 are pids 3, 4)


class CountingWakes:
    """A parked proposal that only counts its wake-ups."""

    def __init__(self):
        self.wakes = 0

    def wake(self):
        self.wakes += 1


def admission_replica(max_txs=100, rate_limit=0.0, burst=32, applied=()):
    """Replica 0 of an idle closed-loop cluster, its effects returned, not
    played; ``applied`` keys are on its chain already."""
    system = ConsensusSystem(small_config(
        "damysus", open_loop=False, num_clients=2, mempool_max_txs=max_txs,
        sender_rate_limit=rate_limit, sender_rate_burst=burst,
    ))
    replica = system.replicas[0]
    replica.runtime = None
    replica.parked = CountingWakes()
    for key in applied:
        replica.ledger.applied.add(key)
    replica.mempool.purge_committed(sorted(applied))
    return replica


def as_request(client_id, forged, tx_id, fee, payload):
    """A request, naming another client id than its transaction if ``forged``."""
    transaction = Transaction(client_id, tx_id, payload, 0.0, fee)
    return ClientRequest(client_id + 1 if forged else client_id, transaction)


REQUESTS_ROWS = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, SYNTHETIC_CLIENT_ID]),  # client 2 has no pid
        st.booleans(),
        st.integers(0, 5),  # repeats are duplicates
        st.integers(0, 3),  # fees: backpressure refuses the cheap ones
        st.sampled_from([0, 8, 32]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(
    rows=REQUESTS_ROWS,
    sender=st.sampled_from([3, 4, STRANGER]),
    max_txs=st.integers(2, 6),
    rate_limit=st.sampled_from([0.0, 0.001]),
    burst=st.integers(1, 4),
    applied=st.sets(st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, 5)), max_size=3),
)
def test_a_packed_frame_is_admitted_as_its_requests_one_by_one(
    rows, sender, max_txs, rate_limit, burst, applied
):
    requests = [as_request(*row) for row in rows]
    whole, single = (admission_replica(max_txs, rate_limit, burst, applied) for _ in range(2))
    frame_effects = whole.on_message(sender, ClientRequests.of(requests))
    row_effects = [
        effect for request in requests for effect in single.on_message(sender, request)
    ]
    assert client_replies(frame_effects) == client_replies(row_effects)
    assert sum(type(effect) is Reply for effect in frame_effects) <= 1
    assert whole.mempool.stats() == single.mempool.stats()
    assert tuple(whole.mempool.take_block(0.0)) == tuple(single.mempool.take_block(0.0))
    assert whole.parked.wakes == min(single.parked.wakes, 1)


class TickingClock:
    """Every read is a microsecond later than the one before."""

    def __init__(self):
        self.reads = 0

    @property
    def now(self):
        self.reads += 1
        return 1_000.0 + self.reads * 0.001


def test_a_frame_reads_the_clock_once_and_stamps_its_nacks_with_that_instant():
    replica = admission_replica(rate_limit=0.001, burst=1)
    replica.clock = clock = TickingClock()
    replica.on_message(3, as_request(0, False, 0, 0, 0))
    frame = ClientRequests.of([as_request(0, False, tx_id, 0, 0) for tx_id in (0, 1)])
    effects = replica.on_message(3, frame)
    assert clock.reads == 2
    instant = 1_000.0 + 2 * 0.001
    assert [(pid, reply.tx_id, reply.verdict, reply.executed_at) for pid, reply in
            client_replies(effects)] == [
        (3, 0, AdmissionVerdict.DUPLICATE, instant),
        (3, 1, AdmissionVerdict.RATE_LIMITED, instant),
    ]
