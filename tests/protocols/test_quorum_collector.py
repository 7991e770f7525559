"""Tests for the quorum collector."""

from repro.protocols.state import QuorumCollector


def test_fires_exactly_once_at_threshold():
    collector = QuorumCollector(3)
    assert collector.add("k", "a", 0) is None
    assert collector.add("k", "b", 1) is None
    assert collector.add("k", "c", 2) == ["a", "b", "c"]
    assert collector.add("k", "d", 3) is None  # already done


def test_deduplicates_by_id():
    collector = QuorumCollector(2)
    assert collector.add("k", "a", 0) is None
    assert collector.add("k", "a2", 0) is None  # same contributor
    assert collector.count("k") == 1
    assert collector.add("k", "b", 1) == ["a", "b"]


def test_keys_are_independent():
    collector = QuorumCollector(2)
    collector.add("k1", "a", 0)
    assert collector.add("k2", "x", 0) is None
    assert collector.add("k1", "b", 1) == ["a", "b"]
    assert collector.add("k2", "y", 1) == ["x", "y"]


def test_threshold_one():
    collector = QuorumCollector(1)
    assert collector.add("k", "only", 0) == ["only"]


def test_discard_before_view_clears_stale_state():
    collector = QuorumCollector(2)
    collector.add((1, "x"), "a", 0)
    collector.add((5, "y"), "b", 0)
    collector.add(2, "c", 0)  # bare-int view keys are pruned too
    collector.discard_before_view(3)
    assert collector.count((1, "x")) == 0
    assert collector.count(2) == 0
    assert collector.count((5, "y")) == 1


def test_done_keys_survive_discard_filter():
    collector = QuorumCollector(1)
    collector.add((5, "y"), "b", 0)
    collector.discard_before_view(3)
    assert collector.add((5, "y"), "c", 1) is None  # still marked done


def test_discard_ignores_unviewed_keys():
    collector = QuorumCollector(2)
    collector.add("opaque", "a", 0)
    collector.discard_before_view(100)
    assert collector.count("opaque") == 1


def test_pending_keys_counts_state():
    collector = QuorumCollector(1)
    assert collector.pending_keys() == 0
    collector.add((1, "x"), "a", 0)
    assert collector.pending_keys() >= 1
    collector.discard_before_view(5)
    assert collector.pending_keys() == 0


def test_discard_clears_dedup_state_too():
    # After GC, a pruned key starts from scratch: the old contributors'
    # dedup entries must not shadow fresh additions.
    collector = QuorumCollector(2)
    collector.add((1, "x"), "a", 0)
    collector.discard_before_view(2)
    assert collector.add((1, "x"), "a2", 0) is None  # fresh key, count 1
    assert collector.count((1, "x")) == 1
    assert collector.add((1, "x"), "b", 1) == ["a2", "b"]


def test_discard_clears_done_marks_below_horizon():
    # Done-marks below the horizon are dropped with the rest of the state,
    # so a resurrected stale key can fire again (staleness filtering is
    # the replica's job, not the collector's).
    collector = QuorumCollector(1)
    assert collector.add((1, "x"), "a", 0) == ["a"]
    collector.discard_before_view(2)
    assert collector.add((1, "x"), "b", 0) == ["b"]


def test_discard_at_horizon_keeps_exact_view():
    collector = QuorumCollector(2)
    collector.add(3, "a", 0)
    collector.discard_before_view(3)  # strictly-below semantics
    assert collector.count(3) == 1
