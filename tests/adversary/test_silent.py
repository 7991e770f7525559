"""Liveness under silent (never-proposing) leaders."""

from repro.adversary.registry import get_adversary
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config

SILENT = get_adversary("silent")


def test_hotstuff_progresses_past_silent_leader():
    system = ConsensusSystem(
        small_config("hotstuff", f=1, timeout_ms=250),
        replica_overrides={1: SILENT.replica_class("hotstuff")},
    )
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4


def test_damysus_progresses_past_silent_leader():
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250),
        replica_overrides={1: SILENT.replica_class("damysus")},
    )
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4


def test_silent_leader_views_time_out():
    system = ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=250),
        replica_overrides={1: SILENT.replica_class("damysus")},
    )
    system.run_until_views(4, max_time_ms=300_000)
    assert any(r.pacemaker.timeouts_fired > 0 for r in system.replicas)
