"""Tests for the Fast-HotStuff baseline (TEE-free, 2 phases, 3f+1)."""


from repro.protocols.fast_hotstuff import FastProposal
from repro.runtime.sim import ConsensusSystem
from tests.conftest import run_protocol, small_config


def test_commits_blocks_safely():
    system, result = run_protocol("fast-hotstuff", views=6)
    assert result.safe
    assert result.committed_blocks >= 6


def test_happy_path_proposals_carry_no_proof():
    system, _ = run_protocol("fast-hotstuff", views=5)
    proposals = []
    # Re-run with a tap to observe proposals.
    system2 = ConsensusSystem(small_config("fast-hotstuff"))
    system2.network.add_tap(
        lambda s, d, p: proposals.append(p) if isinstance(p, FastProposal) else None
    )
    system2.run_until_views(5, max_time_ms=120_000)
    happy = [p for p in proposals if p.view >= 2]
    assert happy
    assert all(p.proof is None for p in happy)


def test_unhappy_path_ships_aggregate_proof():
    """After a silent leader, the next proposal carries 2f+1 reports."""
    proposals = []
    system = ConsensusSystem(small_config("fast-hotstuff", timeout_ms=250))
    system.network.add_tap(
        lambda s, d, p: proposals.append(p) if isinstance(p, FastProposal) else None
    )
    system.crash_replicas([2])  # leader of view 2 crashes -> view 2 times out
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    with_proof = [p for p in proposals if p.proof is not None]
    assert with_proof, "timeout recovery must use the aggregate proof"
    quorum = system.quorum
    assert all(len(p.proof) == quorum for p in with_proof)


def test_proof_proposals_are_larger():
    """The Section 2 trade-off: proofs inflate the proposal by O(n) QCs."""
    system = ConsensusSystem(small_config("fast-hotstuff", timeout_ms=250))
    sizes = {"proof": [], "plain": []}
    system.network.add_tap(
        lambda s, d, p: sizes["proof" if p.proof else "plain"].append(p.wire_size())
        if isinstance(p, FastProposal)
        else None
    )
    system.crash_replicas([2])
    system.run_until_views(4, max_time_ms=300_000)
    assert sizes["proof"] and sizes["plain"]
    assert min(sizes["proof"]) > max(sizes["plain"])


def test_two_phase_latency_beats_hotstuff():
    """Fewer phases: Fast-HotStuff commits faster than basic HotStuff."""
    _, fast = run_protocol("fast-hotstuff", views=5)
    _, slow = run_protocol("hotstuff", views=5)
    assert fast.mean_latency_ms < slow.mean_latency_ms


def test_progress_with_crashed_leader():
    system = ConsensusSystem(small_config("fast-hotstuff", f=1, timeout_ms=250))
    system.crash_replicas([1])
    result = system.run_until_views(4, max_time_ms=300_000)
    assert result.safe
    assert result.committed_blocks >= 4


def test_deterministic_given_seed():
    _, r1 = run_protocol("fast-hotstuff", views=4, seed=9)
    _, r2 = run_protocol("fast-hotstuff", views=4, seed=9)
    assert r1 == r2
