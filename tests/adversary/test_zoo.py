"""The newer zoo residents: drip, withhold, partition, forge, amnesia, spam.

Each test seats the adversary exactly the way ``repro campaign`` would
(same seats, same colluding fault plan) and asserts three things: the
run stays safe, the attack demonstrably fired (its event counters moved),
and the defending component bounded the damage.
"""

from repro.adversary.registry import get_adversary
from repro.adversary.targeted_partition import (
    ATTACK_END_MS,
    leader_isolation_plan,
    victim_pids,
)
from repro.core.faults import FaultPlan
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def attack(name, protocol):
    """The registry's replica class for attack ``name`` on ``protocol``."""
    return get_adversary(name).replica_class(protocol)


# -- slow-drip ---------------------------------------------------------------


def test_slow_drip_commits_but_bleeds_throughput():
    """Same seed, same views: the dripping leader takes strictly longer."""
    clean = ConsensusSystem(small_config("damysus", f=1, timeout_ms=500))
    clean.run_until_views(6, max_time_ms=300_000)

    dripped = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=500),
        replica_overrides={1: attack("slow-drip", "damysus")},
    )
    result = dripped.run_until_views(6, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 5
    assert dripped.replicas[1].dripped_views > 0
    assert dripped.sim.now > clean.sim.now


def test_slow_drip_does_not_trigger_view_changes():
    """The whole point of the attack: it stays under the timeout radar."""
    system = ConsensusSystem(
        small_config("hotstuff", f=1, timeout_ms=500),
        replica_overrides={1: attack("slow-drip", "hotstuff")},
    )
    result = system.run_until_views(5, max_time_ms=300_000)
    assert result.safe
    assert system.replicas[1].dripped_views > 0
    honest = [r for pid, r in enumerate(system.replicas) if pid != 1]
    assert all(r.pacemaker.timeouts_fired == 0 for r in honest)


# -- vote withholding --------------------------------------------------------


def test_damysus_withholding_coalition_costs_nothing_at_f():
    """f withholders of 2f+1: the honest f+1 still form every quorum."""
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=500),
        replica_overrides={1: attack("withhold", "damysus")},
    )
    result = system.run_until_views(5, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4
    assert system.replicas[1].votes_withheld > 0


def test_hotstuff_withholding_coalition_costs_nothing_at_f():
    system = ConsensusSystem(
        small_config("hotstuff", f=1, timeout_ms=500),
        replica_overrides={1: attack("withhold", "hotstuff")},
    )
    result = system.run_until_views(5, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4
    assert system.replicas[1].votes_withheld > 0


# -- targeted partition ------------------------------------------------------


def test_partition_attack_heals_and_commits_resume():
    config = small_config("damysus", f=1, timeout_ms=250)
    n = 3  # damysus: 2f+1
    victims = victim_pids(n, config.f)
    colluder = next(pid for pid in range(n) if pid not in victims)
    system = ConsensusSystem(
        config, replica_overrides={colluder: attack("partition", "damysus")}
    )
    system.apply_fault_plan(leader_isolation_plan(n, config.f))
    system.start()
    system.sim.run(until=ATTACK_END_MS + 4_000.0)
    result = system.result()
    assert result.safe
    assert system.replicas[colluder].suppressed_messages > 0
    # LivenessOracle in miniature: fresh commits after the window healed.
    post_heal = [
        rec for rec in system.monitor.executions if rec.executed_at > ATTACK_END_MS
    ]
    assert post_heal


# -- Byzantine sync server ---------------------------------------------------


def _rejoin_beside_a_forging_sync_server(seed):
    """Replica 2 is down 0.4 s -> 2.4 s beside a peer that forges sync replies."""
    config = small_config(
        "damysus", f=1, timeout_ms=250, checkpoint_interval=5, seed=seed
    )
    n = 3
    victim = n - 1
    system = ConsensusSystem(
        config, replica_overrides={1: attack("sync-forge", "damysus")}
    )
    system.apply_fault_plan(
        FaultPlan().crash(victim, at_ms=400.0, recover_at_ms=2_400.0)
    )
    system.start()
    system.sim.run(until=12_000.0)
    assert system.result().safe
    # The victim rejoined and committed past its outage despite the forger.
    victim_commits = [
        rec
        for rec in system.monitor.executions
        if rec.replica == victim and rec.executed_at > 2_400.0
    ]
    assert victim_commits
    heights = [replica.ledger.height() for replica in system.replicas]
    assert max(heights) - min(heights) <= 1, heights
    return system.replicas[1]


def test_forged_state_transfer_is_refused_and_victim_catches_up():
    """The rejoiner recovers whichever peer its catch-up round opens at."""
    # One round is all a rejoiner needs now, and this seed's opens at the
    # honest peer.  (The parent's crawl kept re-opening rounds, so it met
    # the forger whatever the seed.)
    _rejoin_beside_a_forging_sync_server(seed=1)


def test_forged_replies_to_the_rejoiners_round_are_refused():
    """This seed's round opens at the forger: both forgeries are dropped."""
    forger = _rejoin_beside_a_forging_sync_server(seed=2)
    assert forger.catchup.forged_checkpoints_sent > 0
    assert forger.catchup.forged_suffixes_sent > 0


# -- crash-recover amnesia ---------------------------------------------------


def test_amnesia_rollback_is_refused_by_the_seal_counter():
    config = small_config(
        "damysus", f=1, timeout_ms=250, checkpoint_interval=5, seed=1
    )
    system = ConsensusSystem(config, replica_overrides={1: attack("amnesia", "damysus")})
    system.apply_fault_plan(
        FaultPlan().crash(1, at_ms=800.0, recover_at_ms=1_600.0)
    )
    system.start()
    system.sim.run(until=6_000.0)
    result = system.result()
    assert result.safe
    attacker = system.replicas[1]
    assert attacker.rollback_attempts == 1
    assert attacker.rollback_refusals == 1  # every attempt refused
    # The replica rejoined with full memory and kept committing.
    rejoined = [
        rec
        for rec in system.monitor.executions
        if rec.replica == 1 and rec.executed_at > 1_600.0
    ]
    assert rejoined


# -- mempool spam ------------------------------------------------------------


def test_spam_cannot_overflow_the_bounded_pool():
    config = small_config(
        "damysus", f=1, timeout_ms=500, mempool_max_txs=50, payload_bytes=8
    )
    system = ConsensusSystem(
        config, replica_overrides={1: attack("spam", "damysus")}
    )
    result = system.run_until_views(5, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4
    assert system.replicas[1].spam_sent > 0
    for pid, replica in enumerate(system.replicas):
        if pid != 1:
            assert replica.mempool.pending() <= 50


def test_spam_does_not_stop_hotstuff_commits():
    config = small_config(
        "hotstuff", f=1, timeout_ms=500, mempool_max_txs=50, payload_bytes=8
    )
    system = ConsensusSystem(
        config, replica_overrides={2: attack("spam", "hotstuff")}
    )
    result = system.run_until_views(5, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4
    assert system.replicas[2].spam_sent > 0
