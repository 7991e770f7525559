"""Tests for the asyncio TCP runtime: loopback clusters on real sockets.

These run actual ``asyncio.start_server`` listeners on ephemeral
localhost ports, so they double as the CI smoke test for the network
stack.  Durations are generous upper bounds - a healthy cluster commits
its first block within milliseconds and every run stops early via
``target_blocks``.
"""

import asyncio
import json
from dataclasses import fields, replace

import pytest

from repro.config import SystemConfig
from repro.core.block import create_leaf
from repro.core.mempool import Transaction
from repro.errors import ConfigError
from repro.runtime.asyncio_net import (
    SIMULATOR_ONLY,
    AsyncioRuntime,
    LocalCluster,
    _sized_quorum,
    build_machine,
    health_snapshot,
)
from repro.runtime.sim import ConsensusSystem
from repro.protocols.registry import get_spec
from tests.conftest import executed_chains, run_cluster, tcp_config


def test_smoke_damysus_n4_commits_a_block():
    """The CI acceptance gate: n=4 Damysus commits >= 1 block in 30 s."""
    cluster = LocalCluster(tcp_config(), 4)
    elapsed = run_cluster(cluster, target_blocks=1)
    replicas = cluster.runtimes[: cluster.n]
    assert min(runtime.committed_blocks for runtime in replicas) >= 1
    committed_txs = min(runtime.committed_txs for runtime in replicas)
    assert committed_txs > 0
    assert committed_txs / elapsed > 0


def test_replicas_agree_on_the_committed_chain():
    cluster = LocalCluster(tcp_config(), 4)
    run_cluster(cluster, target_blocks=3)
    chains = list(executed_chains(cluster).values())
    prefix = min(len(chain) for chain in chains)
    assert prefix >= 3
    for chain in chains[1:]:
        assert chain[:prefix] == chains[0][:prefix]


def test_cross_runtime_equivalence_same_block_hashes():
    """The same Damysus scenario commits the same blocks on both runtimes.

    Block identity covers parent linkage, view numbers and every
    transaction payload, so chain-prefix equality means the simulator
    and the socket runtime drove the protocol through identical
    decisions - the sans-I/O core is genuinely host-independent.
    """
    config = SystemConfig(
        protocol="damysus", f=1, payload_bytes=64, block_size=8, seed=7
    )
    system = ConsensusSystem(config)
    system.run_until_views(5, max_time_ms=120_000)
    sim_chain = [block.hash.hex() for block in system.replicas[0].ledger.executed]
    assert len(sim_chain) >= 4

    cluster = LocalCluster(config)
    run_cluster(cluster, target_blocks=5)
    assert cluster.n == system.num_replicas
    net_chain = executed_chains(cluster)[0]
    prefix = min(len(sim_chain), len(net_chain), 4)
    assert prefix >= 4
    assert sim_chain[:prefix] == net_chain[:prefix]


@pytest.mark.parametrize("protocol", ["hotstuff", "chained-damysus"])
def test_other_protocols_commit_on_sockets(protocol):
    cluster = LocalCluster(tcp_config(protocol), 4)
    run_cluster(cluster, target_blocks=1)
    assert min(runtime.committed_blocks for runtime in cluster.runtimes[: cluster.n]) >= 1


def test_sized_quorum_tracks_extra_replicas():
    spec = get_spec("damysus")  # N = 2f+1, quorum = f+1
    assert _sized_quorum(spec, 3) == (1, 2)
    assert _sized_quorum(spec, 4) == (1, 3)  # one extra replica -> +1 quorum
    assert _sized_quorum(spec, 5) == (2, 3)


def test_sized_quorum_rejects_tiny_clusters():
    with pytest.raises(ConfigError):
        _sized_quorum(get_spec("hotstuff"), 3)  # 3f+1 needs n >= 4


def test_concurrent_close_is_safe():
    """Regression: ``close()`` used to read task/server registries, await
    the gather, then clear them - so a concurrent ``close()`` (or a reader
    registered during the gather) raced the stale teardown.  Both callers
    must now complete and leave no server, tracked task or inbound
    transport behind.
    """

    async def scenario():
        runtime = AsyncioRuntime(build_machine("damysus", 0, 4, _FixedClock()))
        host, port = await runtime.start_server()
        reader, writer = await asyncio.open_connection(host, port)
        await asyncio.sleep(0.05)  # let the server accept the connection
        await asyncio.gather(runtime.close(), runtime.close())
        assert runtime._server is None
        assert runtime._sender_tasks == {}
        assert runtime._inbound == set()  # no inbound transport left
        writer.close()
        return True

    assert asyncio.run(scenario())


def test_close_is_reentrant_after_completion():
    async def scenario():
        runtime = AsyncioRuntime(build_machine("damysus", 0, 4, _FixedClock()))
        await runtime.start_server()
        await runtime.close()
        await runtime.close()  # second teardown finds nothing left
        return runtime._server is None

    assert asyncio.run(scenario())


def test_build_machine_registers_all_peer_identities():
    machine = build_machine("damysus", 0, 4, _FixedClock())
    for peer in range(4):
        assert machine.directory.kind_of(peer) == "replica"
        assert machine.directory.kind_of(1_000_000 + peer) == "tee"


#: A value off the default for every field a socket deployment reads.
_OFF_DEFAULT = dict(
    protocol="hotstuff",
    f=2,
    payload_bytes=100,
    block_size=7,
    seed=5,
    compact_qcs=True,
    timeout_ms=900.0,
    timeout_jitter=0.1,
    max_timeout_ms=3_000.0,
    open_loop=False,
    num_clients=3,
    client_interval_ms=3.0,
    client_total_txs=7,
    client_poisson=True,
    client_payload_mix=(0, 64),
    client_max_fee=9,
    client_retry_limit=2,
    mempool_max_txs=500,
    mempool_max_bytes=10_000,
    max_block_bytes=5_000,
    sender_rate_limit=0.5,
    sender_rate_burst=8.0,
    checkpoint_interval=5,
)


def _client_inputs(client):
    rng = None if client.rng is None else (client.rng.name, client.rng._rng.getstate())
    return (
        client.pid, client.client_id, client.replica_pids, client.payload_bytes,
        client.interval_ms, client.total_txs, client.poisson, client.payload_mix,
        client.max_fee, client.retry_limit, rng,
    )


def test_tcp_cluster_seats_every_config_field():
    """One SystemConfig describes the same deployment on both runtimes.

    Every field but the simulator-only ones is set off its default; the
    socket cluster (built, not booted) must hand each replica the config
    with ``f`` sized from its replica count, and build its clients from
    exactly the simulator's constructor inputs.
    """
    defaults = SystemConfig()
    assert set(_OFF_DEFAULT) == {f.name for f in fields(SystemConfig)} - SIMULATOR_ONLY
    for name, value in _OFF_DEFAULT.items():
        assert value != getattr(defaults, name), name
    config = SystemConfig(**_OFF_DEFAULT)
    sim = ConsensusSystem(config)

    cluster = LocalCluster(config)
    assert (cluster.n, cluster.f, cluster.quorum) == (sim.num_replicas, 2, sim.quorum)
    assert [replica.config for replica in cluster.replicas] == [config] * cluster.n
    assert [r.client_pids for r in cluster.replicas] == [r.client_pids for r in sim.replicas]
    assert len(cluster.clients) == config.num_clients
    assert [_client_inputs(c) for c in cluster.clients] == [
        _client_inputs(c) for c in sim.clients
    ]

    wider = LocalCluster(config, 10)  # 3f+1 <= 10 tolerates f = 3
    assert [replica.config for replica in wider.replicas] == [replace(config, f=3)] * 10
    assert [client.pid for client in wider.clients] == [10, 11, 12]


def test_committed_txs_counts_only_transactions_that_took_effect():
    """A block re-carrying an applied key adds only its fresh transaction."""
    machine = build_machine("damysus", 0, 4, _FixedClock())
    runtime = AsyncioRuntime(machine)
    first = create_leaf(machine.store.genesis.hash, 1, (Transaction(0, 0, 0),))
    second = create_leaf(first.hash, 2, (Transaction(0, 0, 0), Transaction(0, 1, 0)))
    for view, block in enumerate((first, second), start=1):
        machine.store.add(block)
        machine.execute_block(block, view)
    assert machine.ledger.filtered == 1
    assert (runtime.committed_blocks, runtime.committed_txs) == (2, 2)


def test_health_snapshot_keeps_every_key_netchaos_reads():
    machine = build_machine("damysus", 0, 4, _FixedClock(), checkpoint_interval=5)
    sample = health_snapshot(machine, AsyncioRuntime(machine), 1.5, restored=True)
    assert set(sample) == {
        "pid", "protocol", "uptime_s", "committed_blocks", "committed_txs", "view",
        "last_committed_view", "view_lag", "ledger_height", "state_root",
        "timeouts_fired", "timeout_ms", "checker_view", "checker_phase",
        "checkpoint_interval", "checkpoint_height", "caught_up_via_checkpoint",
        "catchup_active", "catchup_retries", "catchup_rounds", "restored_from_seal",
        "seal_writes", "restored_checkpoint_height",
        "dropped_messages", "rejected_connections", "mempool", "faults",
    }
    assert sample["restored_from_seal"] is True
    assert sample["checkpoint_interval"] == 5
    assert json.loads(json.dumps(sample)) == sample  # plain JSON types only


class _FixedClock:
    now = 0.0
