"""Re-synchronisation as a chassis rule: a restarted replica rejoins at cluster speed.

The crash shape is the perf ledger's ``sim-leader-crash`` cell (16 Poisson
clients x 312 requests at 500 tx/s, EU latencies, f = 1, replica 1 down
from 3 s to 8 s), run for every protocol.  Three mechanisms of
``BaseReplica`` are under test: the jump to the f+1-corroborated view, the
restarted replica's announcement with the peers' re-sent new-views, and
the fetch of what was committed meanwhile.
"""

import dataclasses
import functools

import pytest

from repro.bench.load import load_config
from repro.core.block import create_chain
from repro.core.commitment import Commitment
from repro.core.faults import FaultPlan
from repro.core.messages import BlockRequest, ChainedProposal, CommitmentMsg, ViewAnnounce
from repro.core.phases import Phase
from repro.protocols.registry import SPECS
from repro.protocols.replica import BaseReplica
from repro.protocols.sync import RESYNC_VIEW_GAP
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config

PROTOCOLS = tuple(SPECS)
RESTARTED = 1
REQUESTS = 16 * 312


@dataclasses.dataclass(frozen=True)
class Snapshot:
    views: tuple[int, ...]
    heights: tuple[int, ...]
    pending: tuple[int, ...]
    completed: int


@functools.cache
def crash_run(protocol: str) -> tuple[dict[int, Snapshot], bool]:
    """Snapshots at 3, 9, 10 and 16 virtual seconds, and the oracle's verdict."""
    config = load_config(
        protocol, rate_per_s=500.0, senders=16, f=1, seed=1, payload_bytes=256
    )
    system = ConsensusSystem(
        dataclasses.replace(config, client_total_txs=312), strict_safety=True
    )
    system.apply_fault_plan(
        FaultPlan().crash(RESTARTED, at_ms=3_000.0, recover_at_ms=8_000.0)
    )
    system.start()
    snapshots = {}
    for second in (3, 9, 10, 16):
        system.run(second * 1000.0 - system.sim.now)
        if second == 16:
            # A decide reaches the replicas a link delay apart: take the
            # last sample between two of them, not in the middle of one.
            while (
                len({r.ledger.height() for r in system.replicas}) > 1
                and system.sim.now < 16_500.0
            ):
                system.run(1.0)
        snapshots[second] = Snapshot(
            views=tuple(r.view for r in system.replicas),
            heights=tuple(r.ledger.height() for r in system.replicas),
            pending=tuple(r.mempool.pending() for r in system.replicas),
            completed=sum(len(c.completed) for c in system.clients),
        )
    return snapshots, system.oracle.safe


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_restarted_replica_is_level_one_second_after_restart(protocol):
    views = crash_run(protocol)[0][9].views
    peers = [view for pid, view in enumerate(views) if pid != RESTARTED]
    assert max(peers) - views[RESTARTED] <= 2, views


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_restarted_replica_executes_what_it_missed(protocol):
    """It fetches the committed suffix, which also purges its pool."""
    final = crash_run(protocol)[0][16]
    assert len(set(final.heights)) == 1, final.heights
    # Every request is committed by now, so a resident is an already
    # committed one (907 of them at the parent commit, Damysus).
    assert final.completed == REQUESTS
    assert final.pending[RESTARTED] == 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_service_is_back_inside_the_offered_horizon(protocol):
    assert crash_run(protocol)[0][10].completed >= 4_900


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_views_per_second_return_to_the_fault_free_rate(protocol):
    """Read where there is work: clients send until about 10 s, and after
    that idle pacing slows views to the heartbeat.  Between 9 and 10 s the
    cluster changes view and commits blocks as fast as before the crash,
    and by 16 s every replica is at one executed height."""
    snapshots = crash_run(protocol)[0]
    for field in ("views", "heights"):
        before = max(getattr(snapshots[3], field)) / 3.0
        after = max(getattr(snapshots[10], field)) - max(getattr(snapshots[9], field))
        assert after == pytest.approx(before, rel=0.10), field
    assert len(set(snapshots[16].heights)) == 1, snapshots[16].heights


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_shape_is_safe(protocol):
    assert crash_run(protocol)[1]


# -- the rule itself --------------------------------------------------------------


def started(protocol: str, f: int = 1, views: int = 3) -> ConsensusSystem:
    system = ConsensusSystem(small_config(protocol, f=f))
    system.start()
    system.run_until_views(views, max_time_ms=600_000)
    return system


def test_f_claimants_cannot_carry_a_replica_past_the_highest_honest_view():
    """With f = 2, two Byzantine peers shouting a far view move nothing;
    the view reached is one an honest claimant vouches for."""
    system = started("damysus", f=2)
    replica = system.replicas[0]
    view = replica.view
    for liar in (1, 2):
        replica.on_message(liar, ViewAnnounce(view + 10_000))
    assert replica.view == view and replica.viewsync.view_lag() == 0
    # The third claimant is honest and two views ahead: f+1 = 3 peers now
    # say "at least view + 2", and that is where the replica goes.
    replica.on_message(3, ViewAnnounce(view + RESYNC_VIEW_GAP))
    assert replica.view == view + RESYNC_VIEW_GAP
    replica.on_message(4, ViewAnnounce(view + 5))
    assert replica.view == view + 5  # third largest claim; never 10 000


def test_one_view_of_corroborated_lead_does_not_jump():
    system = started("damysus")
    replica = system.replicas[0]
    view = replica.view
    for peer in (1, 2):
        replica.on_message(peer, ViewAnnounce(view + 1))
    assert replica.view == view
    assert replica.viewsync.view_lag() == 1  # the next timeout closes this one


@pytest.mark.parametrize("protocol", ["chained-hotstuff", "chained-damysus"])
def test_no_view_is_skipped_on_a_fault_free_chained_run(protocol, monkeypatch):
    """Chained votes are routed as view + 1, so a replica one hop behind
    hears f+1 such claims all the time; none of them may move it."""
    steps = []
    advance = BaseReplica.advance_view

    def recording(self, new_view):
        if new_view > self.view:
            steps.append(new_view - self.view)
        advance(self, new_view)

    monkeypatch.setattr(BaseReplica, "advance_view", recording)
    system = started(protocol, views=30)
    assert steps and set(steps) == {1}
    assert all(r.pacemaker.timeouts_fired == 0 for r in system.replicas)


def test_resend_fires_once_per_peer_and_view_however_many_announcements():
    system = started("damysus", views=6)
    replica = system.replicas[0]
    sent = []
    monitor_send = replica.send_charged

    def counting(dest, payload):
        sent.append((dest, payload))
        monitor_send(dest, payload)

    replica.send_charged = counting
    stored = replica.viewsync._last_new_view
    assert isinstance(stored, CommitmentMsg)
    stale = replica.view - RESYNC_VIEW_GAP
    for _ in range(50):
        replica.on_message(1, ViewAnnounce(stale))
    assert sent == [(1, stored)]  # the stored frame, not a re-signed one
    replica.on_message(2, ViewAnnounce(stale))
    assert sent == [(1, stored), (2, stored)]
    # One view behind is ordinary skew, and non-replicas get nothing.
    replica.on_message(1, ViewAnnounce(replica.view - 1))
    replica.on_message(99, ViewAnnounce(stale))
    assert len(sent) == 2
    # A new own view re-arms the reply.
    replica.advance_view(replica.view + 1)
    sent.clear()
    replica.on_message(1, ViewAnnounce(stale))
    assert [dest for dest, _ in sent] == [1]


def test_a_process_started_past_view_one_announces_itself():
    """``repro serve`` respawns a killed process through ``start()``, not
    ``recover()``: a first view above 1 is what tells the two apart."""
    system = ConsensusSystem(small_config("damysus"))
    system.replicas[1].view = 7  # as DurableSealer.restore() leaves it
    heard = []
    system.network.add_tap(
        lambda src, dst, payload: isinstance(payload, ViewAnnounce)
        and heard.append((src, dst, payload.view))
    )
    system.start()
    system.run(1.0)
    assert sorted(heard) == [(1, 0, 7), (1, 2, 7)]


def test_crash_drops_the_stored_new_view_and_the_resend_marks():
    system = started("damysus", views=6)
    replica = system.replicas[0]
    replica.on_message(1, ViewAnnounce(replica.view - RESYNC_VIEW_GAP))
    viewsync = replica.viewsync
    assert viewsync._last_new_view is not None and viewsync._resent_in_view
    replica.crash()
    assert viewsync._last_new_view is None
    assert not viewsync._resent_in_view and len(replica.buffer) == 0


def test_block_decided_in_the_view_jumped_out_of_is_executed_by_the_next_decide():
    """A jump leaves a decide of the old view in flight; it arrives stale
    and is not handled, so the block must come in as an ancestor of the
    next block this replica decides."""
    system = started("damysus", views=4)
    replica = system.replicas[2]
    left, height = replica.view, replica.ledger.height()
    for peer in (0, 1):  # f+1 peers vouch for a view the cluster is about to reach
        replica.on_message(peer, ViewAnnounce(left + RESYNC_VIEW_GAP))
    assert replica.view == left + RESYNC_VIEW_GAP
    while replica.ledger.height() == height:
        system.run(5.0)
        assert system.sim.now < 60_000.0
    executed_views = [block.view for block in replica.ledger.executed]
    assert executed_views == list(range(1, executed_views[-1] + 1))
    assert executed_views[-1] >= left + RESYNC_VIEW_GAP
    assert system.oracle.safe


# -- fetching what a certificate names --------------------------------------------


def forged_proposal(replica, block_hash, view):
    """What a Byzantine leader of ``view`` can send: a block whose justify
    is an unsigned commitment claiming ``block_hash`` was prepared in the
    view before."""
    forged = Commitment(
        h_prep=block_hash,
        v_prep=view - 1,
        h_just=None,
        v_just=None,
        phase=Phase.PREPARE,
        sigs=(),
    )
    leader = replica.leader_of(view)
    sig = replica.scheme.sign(leader, b"not a prepare commitment")
    return leader, ChainedProposal(view, create_chain(forged, view, ()), sig)


def chained_damysus_follower():
    """A system, one replica of it that does not lead its view, and every
    ``BlockRequest`` sent from here on."""
    system = started("chained-damysus", views=6)
    replica = next(r for r in system.replicas if not r.is_leader(r.view))
    requests = []
    system.network.add_tap(
        lambda src, dst, payload: isinstance(payload, BlockRequest)
        and requests.append((src, dst))
    )
    return system, replica, requests


def awaiting_bodies(replica):
    """How many messages the replica holds back per block body it awaits."""
    return {k: len(v) for k, v in replica.buffer._held.items() if isinstance(k, bytes)}


def test_forged_certificate_naming_a_held_block_buys_no_fetch():
    """The body is here under another view, so no fetch could make the
    certificate good: the proposal is dropped, as it always was.  Parking
    it would re-fetch on every reply - two requests per reply at n = 3."""
    system, replica, requests = chained_damysus_follower()
    view = replica.view
    (held,) = replica.store.blocks_at_view(view - 3)
    leader, proposal = forged_proposal(replica, held.hash, view)
    for _ in range(5):
        replica.on_message(leader, proposal)
    system.run(200.0)
    assert requests == []
    assert not awaiting_bodies(replica)
    assert system.oracle.safe


def test_certificate_naming_an_unknown_block_is_fetched_once():
    """One request per peer however often the proposal is repeated, and
    the parked copies go when the view is left."""
    system, replica, requests = chained_damysus_follower()
    view = replica.view
    leader, proposal = forged_proposal(replica, b"\x17" * 32, view)
    for _ in range(5):
        replica.on_message(leader, proposal)
    peers = [r.pid for r in system.replicas if r.pid != replica.pid]
    assert requests == [(replica.pid, peer) for peer in peers]
    assert awaiting_bodies(replica) == {b"\x17" * 32: 5}
    system.run_until_views(view + 3, max_time_ms=600_000)
    assert replica.view > view and not awaiting_bodies(replica)
    assert len(requests) == len(peers)  # nobody holds it: no reply, no retry
    assert len(replica.buffer) == sum(map(len, replica.buffer._held.values()))
