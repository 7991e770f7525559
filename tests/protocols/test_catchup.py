"""Certified checkpoints + state-transfer catch-up on the simulator."""

import pytest

from repro.core.executor import fold_state_root
from repro.core.messages import ViewAnnounce
from repro.errors import TEERefusal
from repro.protocols import sync
from repro.protocols.sync import CATCHUP_VIEW_GAP
from repro.runtime.sim import ConsensusSystem
from repro.tee.checkpoint import verify_checkpoint
from tests.conftest import small_config


def canonical_root_at(system, height):
    """Fold the oracle's canonical chain prefix into a state root."""
    canonical = system.oracle.canonical_chain()
    assert height <= len(canonical)
    root = system.replicas[0].store.genesis.hash
    for block_hash in canonical[:height]:
        root = fold_state_root(root, block_hash)
    return root


def test_checkpoints_certified_and_log_compacted():
    system = ConsensusSystem(small_config("damysus", checkpoint_interval=5))
    system.start()
    system.run_until_views(30, max_time_ms=600_000)
    for replica in system.replicas:
        ckpt = replica.latest_checkpoint
        assert ckpt is not None
        # Certification is publicly verifiable against the directory.
        verify_checkpoint(ckpt, replica.scheme, replica.directory, replica.quorum)
        # The block log below the horizon is garbage-collected.
        assert replica.ledger.base_height == ckpt.height
        assert len(replica.ledger.executed) == replica.ledger.height() - ckpt.height
        # The certified root is the fold over the canonical chain.
        assert ckpt.state_root == canonical_root_at(system, ckpt.height)
        assert ckpt.block_hash == system.oracle.canonical_chain()[ckpt.height - 1]


def test_compaction_leaves_the_block_store_whole():
    """Pins today's behaviour: compaction frees the executed log only.

    The store keeps every block below the checkpoint.  Pruning it there
    (keeping the checkpoint block as the ancestry anchor) moved the
    campaign digest and stalled an equivocation cell, so it is not done;
    ROADMAP carries it.  When it lands, this test becomes "the store
    stays bounded across checkpoints".
    """
    system = ConsensusSystem(small_config("damysus", checkpoint_interval=5))
    system.start()
    system.run(3_000.0)
    canonical = system.oracle.canonical_chain()
    for replica in system.replicas:
        ckpt = replica.latest_checkpoint
        assert ckpt is not None and ckpt.height >= 20
        assert len(replica.ledger.executed) <= 2 * 5
        assert all(block_hash in replica.store for block_hash in canonical[: ckpt.height])
        assert len(replica.store) > ckpt.height


def test_no_checkpoints_without_interval():
    system = ConsensusSystem(small_config("damysus"))
    system.start()
    system.run_until_views(20, max_time_ms=600_000)
    for replica in system.replicas:
        assert replica.latest_checkpoint is None
        assert replica.ledger.base_height == 0


def test_crashed_replica_rejoins_via_checkpoint_transfer():
    system = ConsensusSystem(
        small_config("damysus", checkpoint_interval=10, block_size=1)
    )
    system.start()
    system.run_until_views(5, max_time_ms=600_000)
    victim = system.replicas[-1].pid
    system.crash_replicas([victim])
    system.run_until_views(400, max_time_ms=3_000_000)
    system.recover_replicas([victim])
    system.run_until_views(480, max_time_ms=6_000_000)

    recovered = system.replicas[victim]
    assert recovered.caught_up_via_checkpoint
    assert recovered.catchup.completed >= 1
    honest = system.replicas[0]
    # The victim skipped the compacted prefix: it holds a base above 0
    # and a height in the honest replicas' neighbourhood.
    assert recovered.ledger.base_height > 0
    assert recovered.ledger.height() >= honest.ledger.base_height
    # Digest equality: the victim's rolling root is bit-identical to the
    # canonical fold at its height (same function both runtimes use).
    assert recovered.ledger.state_root == canonical_root_at(
        system, recovered.ledger.height()
    )
    assert system.oracle.safe
    assert system.oracle.monotone_prefixes_ok()


def test_replica_partitioned_for_10k_views_rejoins():
    """The acceptance scenario: out for >= 10k views, rejoins by transfer."""
    system = ConsensusSystem(
        small_config("damysus", checkpoint_interval=50, block_size=1)
    )
    system.start()
    system.run_until_views(5, max_time_ms=600_000)
    victim = system.replicas[-1].pid
    views_before = len(system.monitor.committed_views())
    system.crash_replicas([victim])
    system.run_until_views(views_before + 10_000, max_time_ms=50_000_000)
    assert len(system.monitor.committed_views()) >= views_before + 10_000
    system.recover_replicas([victim])
    system.run_until_views(
        len(system.monitor.committed_views()) + 60, max_time_ms=60_000_000
    )

    recovered = system.replicas[victim]
    assert recovered.caught_up_via_checkpoint
    # It rejoined by transfer, not by replaying 10k blocks: the locally
    # retained log is a small suffix above the installed checkpoint.
    assert recovered.ledger.base_height >= 10_000 - 100
    assert len(recovered.ledger.executed) < 500
    assert recovered.ledger.state_root == canonical_root_at(
        system, recovered.ledger.height()
    )
    assert recovered.viewsync.view_lag() <= CATCHUP_VIEW_GAP
    assert system.oracle.safe
    assert system.oracle.monotone_prefixes_ok()


def test_catchup_requester_backs_off_and_gives_up(monkeypatch):
    monkeypatch.setattr(sync, "CATCHUP_TIMEOUT_MS", 100.0)
    monkeypatch.setattr(sync, "CATCHUP_MAX_RETRIES", 4)
    system = ConsensusSystem(small_config("damysus", checkpoint_interval=5))
    system.start()
    system.run_until_views(3, max_time_ms=600_000)
    lagger = system.replicas[0]
    # Cut the lagger off and ask it to catch up: nobody answers, so the
    # requester retries with growing (seeded-jittered) timeouts and then
    # gives up at the cap.
    others = [r.pid for r in system.replicas if r.pid != lagger.pid]
    system.crash_replicas(others)
    lagger.catchup.start()
    assert lagger.catchup.active
    system.sim.run(until=system.sim.now + 60_000.0)
    assert lagger.catchup.gave_up
    assert not lagger.catchup.active
    assert lagger.catchup.retries == 4


def test_forged_sync_checkpoint_is_dropped():
    from dataclasses import replace

    system = ConsensusSystem(
        small_config("damysus", checkpoint_interval=5, block_size=1)
    )
    system.start()
    system.run_until_views(40, max_time_ms=600_000)
    donor = system.replicas[0]
    target = system.replicas[1]
    ckpt = donor.latest_checkpoint
    assert ckpt is not None
    forged = replace(ckpt, height=ckpt.height + 1_000)
    with pytest.raises(TEERefusal):
        verify_checkpoint(forged, target.scheme, target.directory, target.quorum)
    # The replica-side handler swallows the refusal and keeps its state.
    target.catchup.active = True
    target.catchup.peer = donor.pid
    height_before = target.ledger.height()
    from repro.protocols.sync import SyncCheckpoint

    target.catchup._handle_sync_checkpoint(donor.pid, SyncCheckpoint(forged))
    assert target.ledger.height() == height_before
    assert not target.caught_up_via_checkpoint


def test_uncertified_sync_suffix_is_never_executed():
    """A forged block suffix - even one chaining perfectly from the
    victim's last executed block - is refused without a decide QC for
    its tip (the review's safety scenario)."""
    from repro.core.block import create_leaf
    from repro.protocols.sync import SyncBlocks

    system = ConsensusSystem(
        small_config("damysus", checkpoint_interval=5, block_size=1)
    )
    system.start()
    system.run_until_views(10, max_time_ms=600_000)
    donor = system.replicas[0]
    target = system.replicas[1]
    target.catchup.active = True
    target.catchup.peer = donor.pid
    height_before = target.ledger.height()
    root_before = target.ledger.state_root
    parent = target.ledger.last_executed_hash
    forged = []
    for i in range(3):
        block = create_leaf(parent, target.view + i + 1, (), created_at=0.0)
        forged.append(block)
        parent = block.hash
    # No certificate at all: nothing executes.
    target.catchup._handle_sync_blocks(
        donor.pid, SyncBlocks(height_before, tuple(forged), done=True)
    )
    assert target.ledger.height() == height_before
    assert target.ledger.state_root == root_before
    # An authentic decide QC for a *different* block does not help either.
    qc = donor.last_commit_qc
    assert qc is not None and qc.h_prep != forged[-1].hash
    target.catchup._handle_sync_blocks(
        donor.pid, SyncBlocks(height_before, tuple(forged), done=True, tip_qc=qc)
    )
    assert target.ledger.height() == height_before
    assert target.ledger.state_root == root_before


def test_sync_replies_from_wrong_peer_are_ignored():
    """Only the peer currently being synced from may feed the transfer -
    even authentic records from a bystander are dropped."""
    from repro.protocols.sync import SyncBlocks, SyncCheckpoint

    system = ConsensusSystem(
        small_config("damysus", checkpoint_interval=10, block_size=1)
    )
    system.start()
    system.run_until_views(5, max_time_ms=600_000)
    victim = system.replicas[-1].pid
    system.crash_replicas([victim])
    system.run_until_views(60, max_time_ms=3_000_000)
    system.recover_replicas([victim])
    lagger = system.replicas[victim]
    donor = system.replicas[0]
    stranger = system.replicas[1]
    ckpt = stranger.latest_checkpoint
    assert ckpt is not None and ckpt.height > lagger.ledger.height()
    lagger.catchup.active = True
    lagger.catchup.peer = donor.pid
    # The checkpoint is authentic, but the sender was never asked.
    lagger.catchup._handle_sync_checkpoint(stranger.pid, SyncCheckpoint(ckpt))
    assert not lagger.caught_up_via_checkpoint
    lagger.catchup._handle_sync_blocks(
        stranger.pid, SyncBlocks(lagger.catchup._have_height(), (), done=True)
    )
    assert lagger.catchup.active  # an unsolicited "done" cannot finish it
    # The same record from the solicited peer installs.
    lagger.catchup._handle_sync_checkpoint(donor.pid, SyncCheckpoint(ckpt))
    assert lagger.caught_up_via_checkpoint
    assert lagger.ledger.height() == ckpt.height


def _claims_of_a_far_view(checkpoint_interval):
    """One peer, then a second, claim ``view + 10 000`` to replica 0."""
    system = ConsensusSystem(
        small_config("damysus", checkpoint_interval=checkpoint_interval, block_size=1)
    )
    system.start()
    system.run_until_views(3, max_time_ms=600_000)
    replica = system.replicas[0]
    assert not replica.catchup.active
    view = replica.view
    for _ in range(3):  # repeating itself does not make one peer two
        replica.on_message(1, ViewAnnounce(view + 10_000))
    assert replica.view == view
    assert replica.viewsync.view_lag() < CATCHUP_VIEW_GAP
    assert not replica.catchup.active
    # A second distinct sender corroborates the claim (f+1 = 2 of 3).
    replica.on_message(2, ViewAnnounce(view + 10_000))
    return replica, view


def test_single_peer_cannot_inflate_view_lag():
    """The watermark needs f+1 distinct senders: one Byzantine peer
    claiming a huge view moves neither it nor the view.  f+1 claims move
    the *view* - the cluster is there - so the lag reads 0 after them."""
    replica, view = _claims_of_a_far_view(checkpoint_interval=0)
    assert replica.view == view + 10_000
    assert replica.viewsync.view_lag() == 0
    assert not replica.catchup.active


def test_corroborated_far_view_goes_to_state_transfer_first():
    """With checkpointing on, a gap of ``CATCHUP_VIEW_GAP`` or more is
    closed by catch-up (peers compacted what a jump would go on to fetch
    block by block); the transfer ends by entering the tip's view."""
    replica, view = _claims_of_a_far_view(checkpoint_interval=5)
    assert replica.catchup.active
    assert replica.view == view
    assert replica.viewsync.view_lag() >= 10_000


def _restarted_beside_a_checkpointing_cluster():
    """Replica 2 crashes at view 5 and recovers with the cluster at view 60."""
    system = ConsensusSystem(
        small_config("damysus", checkpoint_interval=10, block_size=1)
    )
    system.start()
    system.run_until_views(5, max_time_ms=600_000)
    victim = system.replicas[-1]
    system.crash_replicas([victim.pid])
    system.run_until_views(60, max_time_ms=3_000_000)
    system.recover_replicas([victim.pid])
    return system, victim


def test_restart_opens_a_transfer_before_following_the_backlog():
    """Over TCP the frames peers queued for a dead replica reach the
    respawned one first, in order: each lifts the corroborated view by
    less than ``CATCHUP_VIEW_GAP``.  It asks for a transfer at restart
    and follows none of them while that round runs."""
    system, victim = _restarted_beside_a_checkpointing_cluster()
    assert victim.catchup.active
    view = victim.view
    for step in range(2, 3 * CATCHUP_VIEW_GAP, 2):
        for peer in (0, 1):
            victim.on_message(peer, ViewAnnounce(view + step))
    assert victim.view == view
    system.run_until_views(80, max_time_ms=6_000_000)
    assert victim.caught_up_via_checkpoint
    assert victim.ledger.height() >= system.replicas[0].ledger.height() - 1


def test_unverified_done_chunk_cannot_close_the_round():
    """A catch-up peer answering "nothing for you" below the requester's
    height is an out-of-order chunk like any other: the round stays open
    and the retry timer rotates to the next peer."""
    from repro.protocols.sync import SyncBlocks

    system, victim = _restarted_beside_a_checkpointing_cluster()
    assert victim.catchup.active and victim.ledger.height() > 0
    completed = victim.catchup.completed
    victim.on_message(victim.catchup.peer, SyncBlocks(0, (), done=True))
    assert victim.catchup.active
    assert victim.catchup.completed == completed


def test_claims_heard_during_a_round_are_followed_when_it_ends():
    """No jump fires while a round runs, so the round's end takes it."""
    from repro.protocols.sync import SyncBlocks

    system = ConsensusSystem(small_config("damysus", checkpoint_interval=5))
    system.start()
    system.run_until_views(3, max_time_ms=600_000)
    replica = system.replicas[0]
    replica.catchup.start()
    view = replica.view
    for peer in (1, 2):
        replica.on_message(peer, ViewAnnounce(view + 3))
    assert replica.view == view and replica.viewsync.view_lag() == 3
    # The peer has nothing above our height: an empty, matching final chunk.
    replica.on_message(
        replica.catchup.peer, SyncBlocks(replica.ledger.height(), (), done=True)
    )
    assert not replica.catchup.active
    assert replica.view == view + 3


def test_chunked_transfer_survives_the_rate_limit(monkeypatch):
    """Continuation requests of one chunked session are exempt from the
    per-sender rate limit: the whole transfer completes inside a single
    window with no timeout-paced retries."""
    monkeypatch.setattr(sync, "SYNC_CHUNK_BLOCKS", 3)
    monkeypatch.setattr(sync, "SYNC_MIN_INTERVAL_MS", 120_000.0)
    system = ConsensusSystem(
        small_config("damysus", checkpoint_interval=30, block_size=1)
    )
    system.start()
    system.run_until_views(5, max_time_ms=600_000)
    victim = system.replicas[-1].pid
    system.crash_replicas([victim])
    system.run_until_views(60, max_time_ms=3_000_000)
    system.recover_replicas([victim])
    system.run_until_views(80, max_time_ms=6_000_000)

    recovered = system.replicas[victim]
    assert recovered.caught_up_via_checkpoint
    assert recovered.catchup.completed >= 1
    assert recovered.catchup.retries == 0
    assert recovered.ledger.height() >= 30
    assert system.oracle.safe
    assert system.oracle.monotone_prefixes_ok()
