"""Safety under stale-certificate (understating) leaders."""

from repro.adversary import get_adversary
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config

STALE = get_adversary("stale")


def test_hotstuff_lock_rejects_stale_proposals():
    """A genesis-extending leader stalls its views but cannot fork."""
    system = ConsensusSystem(
        small_config("hotstuff", f=1, timeout_ms=250),
        replica_overrides={2: STALE.replica_class("hotstuff")},
    )
    result = system.run_until_views(5, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 5
    byzantine = system.replicas[2]
    assert byzantine.stale_proposals > 0
    # None of the adversary's genesis-extending blocks ever executed
    # beyond the first view (its view-1 proposal legitimately extends
    # genesis before anything is locked).
    for rec in system.monitor.executions:
        block = system.replicas[0].store.get(rec.block_hash)
        if block is not None and rec.view > 1:
            assert block.parent_hash != system.replicas[0].store.genesis.hash


def test_damysus_accumulator_pins_stale_leader_to_executed_chain():
    """Even choosing the lowest f+1 reports cannot fork executed blocks."""
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250),
        replica_overrides={2: STALE.replica_class("damysus")},
    )
    result = system.run_until_views(5, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 5


def test_damysus_stale_leader_chain_stays_linear():
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250),
        replica_overrides={2: STALE.replica_class("damysus")},
    )
    system.run_until_views(5, max_time_ms=300_000)
    replica = system.replicas[0]
    chain = replica.ledger.executed
    prev = replica.store.genesis
    for block in chain:
        assert block.parent_hash == prev.hash
        prev = block
