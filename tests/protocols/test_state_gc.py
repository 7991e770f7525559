"""Long-run state garbage collection: per-view state must stay bounded."""

import sys

import pytest

from repro.protocols.registry import SPECS
from repro.protocols.state import QuorumCollector, discard_views_below
from repro.runtime.sim import ConsensusSystem
from tests.conftest import run_protocol, small_config

#: Upper bound on retained per-view keys after a long run; small and
#: independent of the number of views executed.
MAX_RETAINED_KEYS = 24

#: (protocol, attribute) for every collector and view-keyed set a protocol
#: class declares - the chassis builds, resets and prunes exactly these.
DECLARED_COLLECTORS = [
    (name, attr) for name, spec in SPECS.items() for attr in spec.replica_class.COLLECTORS
]
DECLARED_VIEW_SETS = [
    (name, attr) for name, spec in SPECS.items() for attr in spec.replica_class.VIEW_SETS
]


@pytest.fixture(scope="module")
def long_runs():
    """One 30-view run per protocol, shared by the per-attribute checks."""
    runs = {}
    for name in SPECS:
        system, result = run_protocol(name, views=30)
        assert result.committed_blocks >= 30
        runs[name] = system
    return runs


def undeclared_per_view_state(replica) -> list[str]:
    """Per-view state the chassis does not know about, hence never prunes.

    Every ``QuorumCollector`` and every set whose entries are view-keyed
    (a view, or a tuple led by one) must be named in the class's
    ``COLLECTORS`` / ``VIEW_SETS``.
    """
    undeclared = []
    for attr, value in vars(replica).items():
        if isinstance(value, QuorumCollector):
            if attr not in replica.COLLECTORS:
                undeclared.append(attr)
        elif isinstance(value, set) and value and attr not in replica.VIEW_SETS:
            leftover = set(value)
            discard_views_below(leftover, sys.maxsize)  # drops every view-keyed entry
            if not leftover:
                undeclared.append(attr)
    return undeclared


@pytest.mark.parametrize("protocol,attr", DECLARED_COLLECTORS)
def test_declared_collectors_stay_bounded_over_long_runs(long_runs, protocol, attr):
    for replica in long_runs[protocol].replicas:
        collector = getattr(replica, attr)
        assert isinstance(collector, QuorumCollector)
        assert collector.pending_keys() <= MAX_RETAINED_KEYS


@pytest.mark.parametrize("protocol,attr", DECLARED_VIEW_SETS)
def test_declared_view_sets_stay_bounded_over_long_runs(long_runs, protocol, attr):
    for replica in long_runs[protocol].replicas:
        entries = getattr(replica, attr)
        assert isinstance(entries, set)
        assert len(entries) <= MAX_RETAINED_KEYS
        pruned = set(entries)
        discard_views_below(pruned, replica.view - replica.PRUNE_SLACK)
        assert pruned == entries  # nothing below the horizon survived the last prune


@pytest.mark.parametrize("protocol", SPECS)
def test_every_piece_of_per_view_state_is_declared(long_runs, protocol):
    for replica in long_runs[protocol].replicas:
        assert undeclared_per_view_state(replica) == []


def test_undeclared_per_view_state_is_caught():
    """A subclass that grows per-view state behind the chassis's back fails."""
    base = SPECS["damysus"].replica_class

    class Sloppy(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._extra_votes = QuorumCollector(self.quorum)
            self._seen_views = set()

        def on_view_entered(self, view):
            self._seen_views.add(view)
            self._extra_votes.add((view, b"h"), "vote", self.pid)
            super().on_view_entered(view)

    replica = ConsensusSystem(small_config("damysus")).replicas[0]  # for its wiring
    sloppy = Sloppy(
        replica.pid, replica.clock, replica.config, replica.scheme, replica.directory,
        replica.num_replicas, replica.quorum,
    )
    for view in range(2, 40):
        sloppy.advance_view(view)
    assert sorted(undeclared_per_view_state(sloppy)) == ["_extra_votes", "_seen_views"]
    assert len(sloppy._seen_views) > MAX_RETAINED_KEYS  # never pruned: that is the bug


@pytest.mark.parametrize("protocol", ["damysus", "chained-damysus"])
def test_gc_does_not_break_progress(protocol):
    """Pruning must never remove state a later step still needs."""
    _, short = run_protocol(protocol, views=5, seed=3)
    _, long = run_protocol(protocol, views=25, seed=3)
    assert short.safe and long.safe
    assert long.committed_blocks >= 25
