"""View-change behaviour under faulty leaders.

Table 1 lists no separate view-change message count for the streamlined
protocols: their leader rotation IS the view change, so recovering from a
faulty leader costs one timeout plus the normal-case messages of the next
view.  This benchmark crashes f replicas (placed to lead early views) and
measures the throughput retained relative to a fault-free run - and that
safety holds throughout.
"""

import pytest

from repro.config import SystemConfig
from repro.costs import CostModel
from repro.protocols.registry import PROTOCOL_ORDER
from repro.runtime.sim import ConsensusSystem


def run(protocol: str, crash: bool) -> tuple[float, int]:
    # f = 2 so a single crashed replica owns 1/5 (2f+1) or 1/7 (3f+1) of
    # the leader schedule - a fault density under which retained
    # throughput is a meaningful view-change metric.
    config = SystemConfig(
        protocol=protocol,
        f=2,
        payload_bytes=0,
        block_size=100,
        seed=5,
        timeout_ms=150.0,
        costs=CostModel(),
    )
    system = ConsensusSystem(config)
    if crash:
        system.crash_replicas([1])  # leads every N-th view, starting at 1
    result = system.run(4_000.0)
    assert result.safe
    timeouts = sum(r.pacemaker.timeouts_fired for r in system.replicas)
    return result.throughput_kops, timeouts


@pytest.mark.parametrize("protocol", PROTOCOL_ORDER)
def test_throughput_retained_under_leader_crashes(benchmark, protocol):
    def measure():
        healthy, _ = run(protocol, crash=False)
        degraded, timeouts = run(protocol, crash=True)
        return healthy, degraded, timeouts

    healthy, degraded, timeouts = benchmark.pedantic(measure, rounds=1, iterations=1)
    retained = degraded / healthy if healthy else 0.0
    print(
        f"\n{protocol}: healthy {healthy:.2f} Kops/s, with crashed leader "
        f"{degraded:.2f} Kops/s ({retained:.0%} retained, {timeouts} timeouts)"
    )
    assert timeouts > 0  # the crash actually forced view changes
    assert degraded > 0  # liveness despite a permanently faulty leader
    # Progress must not collapse: the faulty leader owns at most 1/N of
    # the views; with backoff the retained throughput stays meaningful.
    assert retained > 0.1
    benchmark.extra_info["healthy_kops"] = round(healthy, 2)
    benchmark.extra_info["degraded_kops"] = round(degraded, 2)
    benchmark.extra_info["retained"] = round(retained, 3)
