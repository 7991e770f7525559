"""Unit-level tests of the chained protocols' distinctive mechanics."""


from repro.core.phases import Phase
from repro.protocols.chained_damysus import ChainedVote
from repro.runtime.sim import ConsensusSystem
from tests.conftest import run_protocol, small_config


def test_chained_damysus_executes_on_three_chain():
    """A block executes exactly two views after its proposal (3-chain)."""
    system, _ = run_protocol("chained-damysus", views=6)
    replica = system.replicas[0]
    executed_views = sorted({b.view for b in replica.ledger.executed})
    # Block of view v executes while processing view v+2's proposal, so
    # with the run stopped after ~8 views, views 1..6 are all in.
    assert executed_views[0] == 1
    assert executed_views == list(range(1, executed_views[-1] + 1))


def test_chained_hotstuff_executes_on_four_chain():
    """Chained HotStuff needs one more view in the pipeline."""
    dam_sys, _ = run_protocol("chained-damysus", views=5)
    hs_sys, _ = run_protocol("chained-hotstuff", views=5)
    # For the same proposal times, Damysus's execution lag is one view
    # shorter; compare mean latency at zero CPU cost (pure pipeline).
    dam_lat = dam_sys.monitor.mean_latency_ms()
    hs_lat = hs_sys.monitor.mean_latency_ms()
    assert dam_lat < hs_lat


def test_chained_blocks_carry_justifications():
    system, _ = run_protocol("chained-damysus", views=4)
    replica = system.replicas[0]
    for block in replica.ledger.executed:
        if block.view == 1:
            assert block.justify is not None and block.justify.is_genesis
        else:
            assert block.justify is not None
            assert block.justify.cview == block.view - 1
            assert block.parent == block.justify.hash


def test_chained_damysus_certificates_are_commitments_after_view1():
    from repro.core.commitment import Commitment

    system, _ = run_protocol("chained-damysus", views=4)
    replica = system.replicas[0]
    later = [b for b in replica.ledger.executed if b.view >= 2]
    assert later
    for block in later:
        assert isinstance(block.justify, Commitment)
        assert len(block.justify.sigs) == system.quorum
        assert block.justify.phase == Phase.PREPARE


def test_chained_vote_routing_targets_next_view():
    system = ConsensusSystem(small_config("chained-damysus"))
    replica = system.replicas[0]
    from repro.core.commitment import Commitment
    from repro.crypto.scheme import Signature

    nv = Commitment(None, 3, b"\x01" * 32, 1, Phase.NEW_VIEW, (Signature(0, b"", "x"),))
    vote = ChainedVote(3, None, nv)
    assert replica.message_view(vote) == 4


def test_chained_vote_wire_size():
    from repro.core.commitment import Commitment
    from repro.crypto.scheme import Signature

    nv = Commitment(None, 3, b"\x01" * 32, 1, Phase.NEW_VIEW, (Signature(0, b"", "x"),))
    prep = Commitment(b"\x02" * 32, 3, None, None, Phase.PREPARE, (Signature(0, b"", "x"),))
    bare = ChainedVote(3, None, nv)
    full = ChainedVote(3, prep, nv)
    assert full.wire_size() == bare.wire_size() + prep.wire_size()


def test_chained_damysus_tee_prepared_follows_chain():
    """Each replica's checker stores the latest certified block."""
    system, _ = run_protocol("chained-damysus", views=5)
    replica = system.replicas[0]
    checker = replica.checker
    # The stored prepared view trails the head by the pipeline depth.
    head_view = max(b.view for b in replica.ledger.executed)
    assert checker.prepared_view >= head_view


def test_chained_gap_recovery_after_silent_view():
    """A failed view leaves a gap; the next certificate is an accumulator."""
    from repro.core.certificate import Accumulator

    system = ConsensusSystem(small_config("chained-damysus", f=1, timeout_ms=250))
    system.crash_replicas([1])  # leader of views 1, 4, 7...
    system.run_until_views(4, max_time_ms=300_000)
    replica = system.replicas[0]
    accumulator_justified = [
        b
        for b in replica.store._by_hash.values()  # noqa: SLF001 - test introspection
        if b.justify is not None and isinstance(b.justify, Accumulator)
    ]
    assert accumulator_justified, "timeout recovery must use the accumulator"
