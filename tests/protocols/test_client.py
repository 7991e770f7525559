"""Tests for the closed-loop client path (Fig 9 machinery)."""


from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def closed_loop_config(protocol="damysus", **overrides):
    params = dict(
        open_loop=False,
        num_clients=2,
        client_interval_ms=5.0,
        block_size=50,
    )
    params.update(overrides)
    return small_config(protocol, **params)


def test_clients_receive_replies():
    system = ConsensusSystem(closed_loop_config())
    system.run(400.0)
    completed = sum(len(c.completed) for c in system.clients)
    assert completed > 0


def test_client_latency_positive_and_bounded():
    system = ConsensusSystem(closed_loop_config())
    system.run(400.0)
    for client in system.clients:
        for record in client.completed:
            assert 0 < record.latency_ms < 400.0


def test_first_reply_wins_and_duplicates_ignored():
    system = ConsensusSystem(closed_loop_config())
    system.run(400.0)
    for client in system.clients:
        tx_ids = [c.tx_id for c in client.completed]
        assert len(tx_ids) == len(set(tx_ids))


def test_closed_loop_blocks_contain_client_txs():
    system = ConsensusSystem(closed_loop_config())
    system.run(400.0)
    executed = system.replicas[0].ledger.executed
    client_txs = [
        tx for block in executed for tx in block.transactions if tx.client_id >= 0
    ]
    assert client_txs


def test_client_total_txs_limit():
    system = ConsensusSystem(closed_loop_config(client_total_txs=3))
    system.run(500.0)
    for client in system.clients:
        assert len(client.submitted) + len(client.completed) <= 3


def test_client_counts_what_it_completed():
    """The report's throughput is completions over time: a client that
    completed requests submitted at least that many and dropped none."""
    system = ConsensusSystem(closed_loop_config())
    system.run(400.0)
    client = system.clients[0]
    assert client.completed
    assert client.submitted_total >= len(client.completed)
    assert client.dropped == 0 and client.retried == 0


def test_light_load_has_low_queueing_delay():
    """Under light load, client latency is close to commit latency."""
    light = ConsensusSystem(closed_loop_config(client_interval_ms=50.0))
    light.run(600.0)
    latencies = [c.mean_latency_ms() for c in light.clients if c.completed]
    assert latencies
    assert all(lat < 300.0 for lat in latencies)
