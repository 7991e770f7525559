"""Property-based tests on core data-structure invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import create_leaf
from repro.core.chain import BlockStore
from repro.core.mempool import Transaction
from repro.core.phases import StepRule, initial_step
from repro.protocols.state import QuorumCollector


# -- step arithmetic -----------------------------------------------------------

@given(st.sampled_from(list(StepRule)), st.integers(min_value=0, max_value=200))
@settings(max_examples=100)
def test_step_index_is_strictly_monotone(rule, n):
    step = initial_step(rule)
    last = step.index(rule)
    for _ in range(n % 30):
        step = step.increment(rule)
        current = step.index(rule)
        assert current == last + 1
        last = current


@given(st.sampled_from(list(StepRule)))
def test_view_increases_by_one_per_cycle(rule):
    step = initial_step(rule)
    start_view = step.view
    cycle_lengths = {StepRule.BASIC: 3, StepRule.CHAINED: 2, StepRule.THREE_PHASE: 4}
    for _ in range(cycle_lengths[rule]):
        step = step.increment(rule)
    assert step.view == start_view + 1
    assert step.phase == initial_step(rule).phase


# -- block store ancestry ---------------------------------------------------------

@st.composite
def block_trees(draw):
    """A random tree of blocks over genesis: list of (parent_index) links."""
    size = draw(st.integers(min_value=1, max_value=12))
    parents = [draw(st.integers(min_value=-1, max_value=i - 1)) for i in range(size)]
    return parents


@given(block_trees())
@settings(max_examples=150)
def test_ancestry_is_transitive_and_antisymmetric(parents):
    store = BlockStore()
    blocks = []
    for i, parent_idx in enumerate(parents):
        parent_hash = store.genesis.hash if parent_idx < 0 else blocks[parent_idx].hash
        block = create_leaf(parent_hash, i + 1, (Transaction(0, i, 0),))
        store.add(block)
        blocks.append(block)
    for a in blocks:
        assert store.is_ancestor(store.genesis.hash, a.hash)  # rooted
        for b in blocks:
            strict = a.hash != b.hash
            fwd = strict and store.is_ancestor(a.hash, b.hash)
            bwd = strict and store.is_ancestor(b.hash, a.hash)
            assert not (fwd and bwd)  # antisymmetry
            if fwd:
                # Transitivity through the parent link.
                path = store.path_between(a.hash, b.hash)
                assert path[-1].hash == b.hash
                assert all(
                    path[i + 1].parent_hash == path[i].hash for i in range(len(path) - 1)
                )


# -- quorum collector ----------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=15), min_size=0, max_size=40),
)
@settings(max_examples=200)
def test_collector_fires_once_iff_enough_distinct(threshold, contributors):
    collector = QuorumCollector(threshold)
    fired = []
    for i, contributor in enumerate(contributors):
        result = collector.add("key", f"item{i}", contributor)
        if result is not None:
            fired.append(result)
    distinct = len(set(contributors))
    if distinct >= threshold:
        assert len(fired) == 1
        assert len(fired[0]) == threshold
    else:
        assert fired == []
