"""Liveness tests: progress despite crashes and timeouts.

All six protocols must keep committing when f replicas crash - including
when crashed replicas are scheduled as leaders, exercising the timeout /
new-view path.
"""

import pytest

from repro.protocols.registry import PROTOCOL_ORDER, get_spec
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


@pytest.mark.parametrize("protocol", PROTOCOL_ORDER)
def test_progress_with_f_crashed_followers(protocol):
    """Crash f replicas that are not early leaders; no timeout needed."""
    spec = get_spec(protocol)
    f = 1
    n = spec.num_replicas(f)
    system = ConsensusSystem(small_config(protocol, f=f, timeout_ms=300))
    system.crash_replicas([n - 1])  # the last replica leads latest
    result = system.run_until_views(4, max_time_ms=120_000)
    assert result.safe
    assert result.committed_blocks >= 4


@pytest.mark.parametrize("protocol", PROTOCOL_ORDER)
def test_progress_with_crashed_leader(protocol):
    """Crash the leader of an early view; its views must time out."""
    system = ConsensusSystem(small_config(protocol, f=1, timeout_ms=250))
    system.crash_replicas([1])  # leader of view 1 (and every N-th view)
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4
    # At least one correct replica must have observed a timeout.
    assert any(r.pacemaker.timeouts_fired > 0 for r in system.replicas if not r.crashed)


@pytest.mark.parametrize("protocol", ["hotstuff", "damysus"])
def test_progress_with_f_crashes_at_larger_f(protocol):
    spec = get_spec(protocol)
    f = 2
    n = spec.num_replicas(f)
    system = ConsensusSystem(small_config(protocol, f=f, timeout_ms=250))
    system.crash_replicas([1, n - 1])  # one early leader + one follower
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4


@pytest.mark.parametrize("protocol", ["hotstuff", "damysus", "chained-damysus"])
def test_mid_run_crash_does_not_halt(protocol):
    system = ConsensusSystem(small_config(protocol, f=1, timeout_ms=250))
    system.start()
    system.sim.run(until=100.0)
    committed_before = len(system.monitor.committed_views())
    system.crash_replicas([2])
    result = system.run_until_views(committed_before + 4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= committed_before + 4


@pytest.mark.parametrize("protocol", ["damysus", "hotstuff"])
def test_recovery_under_partial_synchrony(protocol):
    """Pre-GST chaos delays messages arbitrarily; progress resumes after GST."""
    config = small_config(
        protocol,
        f=1,
        timeout_ms=400,
        gst_ms=500.0,
        delta_ms=100.0,
        pre_gst_extra_ms=400.0,
    )
    system = ConsensusSystem(config)
    result = system.run_until_views(4, max_time_ms=600_000)
    assert result.safe
    assert result.committed_blocks >= 4
