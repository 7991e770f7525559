"""State machine replication over the consensus protocols."""

import pytest

from repro.app.kvstore import OP_INCREMENT, OP_PUT, KVCommand
from repro.app.replicated import attach_state_machines
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def replicated_run(protocol, commands, views=6):
    system = ConsensusSystem(small_config(protocol, block_size=4))
    app = attach_state_machines(system)
    for command in commands:
        app.submit_everywhere(command)
    system.run_until_views(views, max_time_ms=120_000)
    return system, app


COMMANDS = [
    KVCommand(OP_PUT, "alpha", "1", seq=0),
    KVCommand(OP_PUT, "beta", "2", seq=1),
    KVCommand(OP_INCREMENT, "counter", seq=2),
    KVCommand(OP_INCREMENT, "counter", seq=3),
    KVCommand(OP_PUT, "alpha", "3", seq=4),
]


@pytest.mark.parametrize("protocol", ["damysus", "hotstuff", "chained-damysus"])
def test_replicas_converge_on_identical_state(protocol):
    system, app = replicated_run(protocol, COMMANDS)
    digest = app.verify_convergence()
    assert digest  # no divergence raised
    machine, results = app.replay(system.replicas[0])
    assert machine.get("beta") == "2"
    assert machine.get("alpha") == "3"
    assert machine.get("counter") == "2"
    assert len(results) == len(COMMANDS)


def test_commands_executed_in_log_order():
    system, app = replicated_run("damysus", COMMANDS)
    _, results = app.replay(system.replicas[0])
    ops = [(r.command.op, r.command.key) for r in results]
    assert ops == [(c.op, c.key) for c in COMMANDS]


def test_duplicate_submissions_applied_once():
    system = ConsensusSystem(small_config("damysus", block_size=4))
    app = attach_state_machines(system)
    command = KVCommand(OP_INCREMENT, "x")
    app.submit_everywhere(command)  # lands in 3 mempools -> proposed 3x
    system.run_until_views(6, max_time_ms=120_000)
    machine, results = app.replay(system.replicas[0])
    assert machine.get("x") == "1"  # applied exactly once
    assert len(results) == 1


def test_single_replica_submission_still_commits():
    system = ConsensusSystem(small_config("damysus", block_size=4))
    app = attach_state_machines(system)
    app.submit(KVCommand(OP_PUT, "solo", "yes"), replica=1)
    system.run_until_views(8, max_time_ms=120_000)
    machine, _ = app.replay(system.replicas[2])
    assert machine.get("solo") == "yes"
    app.verify_convergence()


@pytest.mark.parametrize("everywhere", [True, False], ids=["submit_everywhere", "submit"])
def test_a_command_submitted_to_a_parked_cluster_commits_within_one_view(everywhere):
    """Commands enter through ``BaseReplica.submit``, which wakes a parked
    leader as an admitted client request does: the block carrying the
    command is the one the leader was holding back, not a heartbeat's."""
    config = small_config("damysus", block_size=4, open_loop=False)
    system = ConsensusSystem(config)
    app = attach_state_machines(system)
    system.run(1_000.0)
    # Submit the moment a leader parks: its heartbeat is a whole half timeout away.
    while any(replica.parked for replica in system.replicas):
        system.run(1.0)
    while not any(replica.parked for replica in system.replicas):
        system.run(1.0)
    leader = next(replica for replica in system.replicas if replica.parked)
    view, submitted_at = leader.parked.view, system.sim.now
    command = KVCommand(OP_PUT, "idle", "woken")
    if everywhere:
        app.submit_everywhere(command)
    else:
        app.submit(command, replica=leader.pid)
    while app.replay(system.replicas[0])[0].get("idle") != "woken":
        system.run(1.0)
        assert system.sim.now - submitted_at < config.timeout_ms / 2, "waited for a heartbeat"
    (carrier,) = [block for block in system.replicas[0].ledger.executed if block.transactions]
    assert carrier.view == view


def test_convergence_under_byzantine_leader():
    from repro.adversary import get_adversary

    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250, block_size=4),
        replica_overrides={1: get_adversary("equivocate").replica_class("damysus")},
    )
    app = attach_state_machines(system)
    for command in COMMANDS:
        app.submit_everywhere(command)
    system.run_until_views(6, max_time_ms=300_000)
    app.verify_convergence()
