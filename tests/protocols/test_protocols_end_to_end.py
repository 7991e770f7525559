"""End-to-end tests: every protocol commits safely and consistently.

These run the full simulated stack (network, TEEs, pacemakers) at small
scale with a strict safety oracle, so any fork raises immediately.
"""

import pytest

from repro.analysis.complexity import expected_messages
from repro.protocols.registry import PROTOCOL_ORDER, get_spec
from tests.conftest import run_protocol

ALL = PROTOCOL_ORDER

#: Leader certificate fan-outs per committed view, by message type: Damysus'
#: two phases against HotStuff's three.
LEADER_CERTIFICATES = {
    "damysus": {"damysus-prep-qc": 1, "damysus-decide": 1},
    "hotstuff": {"qc": 3},
}


@pytest.mark.parametrize("protocol", ALL)
def test_commits_blocks_safely(protocol):
    system, result = run_protocol(protocol, views=5)
    assert result.safe
    assert result.committed_blocks >= 5
    assert result.mean_latency_ms > 0


@pytest.mark.parametrize("protocol", ALL)
def test_replica_count_matches_spec(protocol):
    spec = get_spec(protocol)
    system, result = run_protocol(protocol, views=3, f=2)
    assert result.num_replicas == spec.num_replicas(2)
    assert system.quorum == spec.quorum(2)


@pytest.mark.parametrize("protocol", ALL)
def test_all_replicas_agree_on_executed_chain(protocol):
    system, result = run_protocol(protocol, views=5)
    sequences = [
        [b.hash for b in replica.ledger.executed] for replica in system.replicas
    ]
    longest = max(sequences, key=len)
    assert len(longest) >= 5
    for seq in sequences:
        assert seq == longest[: len(seq)]


@pytest.mark.parametrize("protocol", ALL)
def test_executed_blocks_form_parent_chain(protocol):
    system, _ = run_protocol(protocol, views=5)
    replica = system.replicas[0]
    chain = replica.ledger.executed
    prev = replica.store.genesis
    for block in chain:
        assert block.parent_hash == prev.hash
        prev = block


@pytest.mark.parametrize("protocol", ALL)
def test_steady_state_message_counts_match_table1(protocol):
    """Simulated per-block messages reproduce Table 1's closed forms."""
    f = 2
    system, result = run_protocol(protocol, views=8, f=f)
    counts = system.monitor.view_message_counts
    steady_views = [v for v in sorted(counts) if 2 <= v <= 6]
    assert steady_views, "no steady-state views observed"
    per_view = sum(counts[v] for v in steady_views) / len(steady_views)
    span = {"chained-hotstuff": 4, "chained-damysus": 3}.get(protocol, 1)
    assert per_view * span == pytest.approx(expected_messages(protocol, f), rel=0.05)
    # Each leader certificate goes to every replica; the view the run stopped
    # in adds less than one view's worth, which the floor drops.
    certificates = LEADER_CERTIFICATES.get(protocol, {})
    by_type = system.monitor.messages_by_type
    per_fan_out = result.num_replicas * len(system.monitor.committed_views())
    assert {t: by_type[t] // per_fan_out for t in certificates} == certificates


@pytest.mark.parametrize("protocol", ALL)
def test_deterministic_given_seed(protocol):
    _, r1 = run_protocol(protocol, views=4, seed=123)
    _, r2 = run_protocol(protocol, views=4, seed=123)
    assert r1 == r2


@pytest.mark.parametrize("protocol", ALL)
def test_different_seeds_vary_timing_not_safety(protocol):
    _, r1 = run_protocol(protocol, views=4, seed=1)
    _, r2 = run_protocol(protocol, views=4, seed=2)
    assert r1.safe and r2.safe
    assert r1.committed_blocks >= 4 and r2.committed_blocks >= 4


@pytest.mark.parametrize("protocol", ["hotstuff", "damysus"])
def test_transactions_flow_into_blocks(protocol):
    system, result = run_protocol(protocol, views=3)
    executed = system.replicas[0].ledger.executed
    assert all(block.num_transactions() == 5 for block in executed)


@pytest.mark.parametrize("protocol", ALL)
def test_throughput_and_latency_positive(protocol):
    _, result = run_protocol(protocol, views=4)
    assert result.throughput_kops > 0
    assert 0 < result.mean_latency_ms < result.duration_ms
