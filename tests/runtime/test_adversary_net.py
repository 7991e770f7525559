"""Adversaries on real sockets: the zoo is runtime-independent.

The Byzantine replicas are sans-I/O Machines, so the exact class that
attacks the simulator also attacks the asyncio TCP runtime.  These tests
run actual loopback clusters (like ``test_asyncio_net``) and double as
the CI demonstration that attacks work over real TCP.
"""

import pytest

from repro.adversary import get_adversary
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.protocols.registry import get_spec
from repro.runtime.asyncio_net import LocalCluster, build_machine
from repro.runtime.resilience.supervisor import ReplicaProcessSpec
from repro.runtime.sim import ConsensusSystem
from tests.conftest import executed_chains, run_cluster, tcp_config

EQUIVOCATOR = get_adversary("equivocate").replica_class("damysus")


def test_cross_runtime_equivalence_under_equivocation():
    """Same attack, same honest outcome on the simulator and on sockets.

    An equivocating Damysus leader at pid 1 is hard-refused by its own
    Checker on both runtimes, so the honest replicas commit the same
    chain either way.  Block hashes cover parentage, views and payloads,
    so prefix equality means the two hosts drove identical decisions.
    """
    config = SystemConfig(
        protocol="damysus", f=1, payload_bytes=64, block_size=8, seed=7
    )
    system = ConsensusSystem(
        config, replica_overrides={1: EQUIVOCATOR}
    )
    result = system.run_until_views(5, max_time_ms=120_000)
    assert result.safe
    sim_chain = [block.hash.hex() for block in system.replicas[0].ledger.executed]
    assert len(sim_chain) >= 4

    cluster = LocalCluster(config, replica_overrides={1: EQUIVOCATOR})
    run_cluster(cluster, target_blocks=5)
    assert cluster.n == system.num_replicas
    honest = {pid: chain for pid, chain in executed_chains(cluster).items() if pid != 1}
    for pid, net_chain in honest.items():
        prefix = min(len(sim_chain), len(net_chain), 4)
        assert prefix >= 4, pid
        assert sim_chain[:prefix] == net_chain[:prefix], pid


def test_named_adversary_on_sockets_commits():
    """``adversary=`` seats the registry attack; honest liveness holds."""
    cluster = LocalCluster(tcp_config(timeout_ms=1_000.0), 4, adversary="silent")
    run_cluster(cluster, target_blocks=2)
    assert min(runtime.committed_blocks for runtime in cluster.runtimes[: cluster.n]) >= 2
    honest = [chain for pid, chain in executed_chains(cluster).items() if pid != 1]
    prefix = min(len(chain) for chain in honest)
    assert prefix >= 2
    for chain in honest[1:]:
        assert chain[:prefix] == honest[0][:prefix]


def test_unknown_adversary_fails_fast():
    with pytest.raises(ConfigError, match="unknown adversary"):
        LocalCluster(tcp_config(), 4, adversary="nope")


def test_build_machine_accepts_a_replica_class_override():
    class _FixedClock:
        now = 0.0

    machine = build_machine(
        "damysus", 1, 4, _FixedClock(), replica_class=EQUIVOCATOR
    )
    assert isinstance(machine, EQUIVOCATOR)
    honest = build_machine("damysus", 0, 4, _FixedClock())
    assert not isinstance(honest, EQUIVOCATOR)


def test_adversary_seats_resolve_like_the_simulator():
    """The socket runtime seats a named attack at the registry's pids."""
    spec = get_adversary("withhold")
    assert spec.seats(4, 1) == (1,)
    cluster = LocalCluster(tcp_config(), 4, adversary="withhold")  # built, not booted
    assert [type(replica) for replica in cluster.replicas] == [
        spec.replica_overrides("damysus", 4, 1).get(pid, get_spec("damysus").replica_class)
        for pid in range(4)
    ]
    assert type(cluster.replicas[1]) is spec.replica_class("damysus")


def test_process_spec_argv_carries_adversary_flags():
    spec = ReplicaProcessSpec(
        pid=1,
        config=tcp_config(max_timeout_ms=4_000.0, timeout_jitter=0.1),
        n=4,
        base_port=7000,
        adversary="equivocate",
    )
    argv = spec.argv()
    assert argv[argv.index("--max-timeout-ms") + 1] == "4000.0"
    assert argv[argv.index("--timeout-jitter") + 1] == "0.1"
    assert argv[argv.index("--adversary") + 1] == "equivocate"


def test_process_spec_argv_omits_defaults():
    argv = ReplicaProcessSpec(pid=0, config=tcp_config(), n=4, base_port=7000).argv()
    assert "--adversary" not in argv
    assert "--max-timeout-ms" not in argv
    assert "--timeout-jitter" not in argv
