"""Liveness and memory bounds under a flooding adversary."""

from repro.adversary import get_adversary
from repro.protocols.replica import MAX_BUFFERED_MESSAGES
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def flooded_system():
    return ConsensusSystem(
        small_config("damysus", f=1, timeout_ms=300),
        replica_overrides={2: get_adversary("flood").replica_class("damysus")},
    )


def test_progress_despite_flood():
    system = flooded_system()
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4


def test_buffers_stay_bounded():
    system = flooded_system()
    system.run_until_views(4, max_time_ms=300_000)
    for replica in system.replicas:
        if replica.pid == 2:
            continue
        assert len(replica.buffer) <= MAX_BUFFERED_MESSAGES


def test_junk_never_reaches_protocol_handlers():
    """Flood messages are for far-future views: buffered or dropped, and
    the junk signature would fail TEE verification anyway."""
    system = flooded_system()
    system.run_until_views(3, max_time_ms=300_000)
    for replica in system.replicas:
        if replica.pid == 2:
            continue
        # No honest replica advanced anywhere near the junk views.
        assert replica.view < 100
