"""Tests for the BaseReplica plumbing: buffering, staleness, charging."""


from repro.adversary.registry import get_adversary
from repro.adversary.sync_server import ForgingSyncServer
from repro.core.block import create_leaf
from repro.core.mempool import Transaction
from repro.core.messages import BlockRequest, BlockResponse, ClientRequest, ViewAnnounce
from repro.costs import CostModel
from repro.protocols.damysus import DamysusReplica
from repro.protocols.sync import SyncRequest, ViewSync
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def build(protocol="damysus", **overrides):
    system = ConsensusSystem(small_config(protocol, **overrides))
    return system


def test_future_view_messages_are_buffered_and_replayed():
    system = build()
    system.start()
    replica = system.replicas[2]
    # Fabricate a payload for a future view.
    class FutureMsg:
        view = 7
        msg_type = "future"

        def wire_size(self):
            return 10

    seen = []
    replica.dispatch = lambda sender, payload: seen.append(payload)  # type: ignore
    replica.on_message(0, FutureMsg())
    assert seen == []  # buffered, not dispatched
    replica.advance_view(7)
    assert len(seen) == 1  # replayed on entry


def test_stale_messages_are_dropped_via_hook():
    system = build()
    system.start()
    replica = system.replicas[2]

    class OldMsg:
        view = 0
        msg_type = "old"

        def wire_size(self):
            return 10

    dispatched, stale = [], []
    replica.dispatch = lambda s, p: dispatched.append(p)  # type: ignore
    replica.on_stale = lambda s, p: stale.append(p)  # type: ignore
    replica.advance_view(5)
    replica.on_message(0, OldMsg())
    assert dispatched == []
    assert len(stale) == 1


def test_buffer_capacity_is_bounded():
    from repro.protocols.replica import MAX_BUFFERED_MESSAGES

    system = build()
    replica = system.replicas[0]

    class Future:
        view = 99
        msg_type = "flood"

        def wire_size(self):
            return 10

    for _ in range(MAX_BUFFERED_MESSAGES + 100):
        replica.on_message(1, Future())
    assert len(replica.buffer) <= MAX_BUFFERED_MESSAGES


def test_advance_view_is_monotone():
    system = build()
    replica = system.replicas[0]
    replica.advance_view(5)
    replica.advance_view(3)  # ignored
    assert replica.view == 5


def test_client_requests_feed_the_mempool():
    system = build()
    replica = system.replicas[0]
    request = ClientRequest(4, Transaction(4, 1, 16))
    replica.on_message(99, request)
    assert replica.mempool.pending() == 1


def test_a_chassis_handler_overridden_by_name_gets_its_traffic():
    """A component's ``SERVICE_HANDLERS`` names resolve per replica class, so
    the override in the component it swaps in is what runs."""
    seen = []

    class RecordingViewSync(ViewSync):
        def _handle_view_announce(self, sender, msg):
            seen.append((sender, msg))

    class Recording(DamysusReplica):
        COMPONENTS = {**DamysusReplica.COMPONENTS, "viewsync": RecordingViewSync}

    system = ConsensusSystem(small_config("damysus"), replica_overrides={2: Recording})
    replica = system.replicas[2]
    served = type(replica)._service[ViewAnnounce]
    assert served.__wrapped__ is RecordingViewSync._handle_view_announce
    announce = ViewAnnounce(replica.view + 50)  # far ahead, yet served, not buffered
    replica.on_message(0, announce)
    assert seen == [(0, announce)]
    assert len(replica.buffer) == 0
    # The Byzantine sync server's override is how its forgeries get sent.
    served = get_adversary("sync-forge").replica_class("damysus")._service[SyncRequest]
    assert served.__wrapped__ is ForgingSyncServer._handle_sync_request


def test_chassis_traffic_is_served_to_replicas_only():
    """Block fetch, state transfer and view announcements run between
    replicas: any other pid is answered nothing and changes nothing."""
    system = build(checkpoint_interval=4, num_clients=1)
    system.run_until_views(20, max_time_ms=600_000)
    replica = system.replicas[0]
    outsider = system.clients[0].pid
    held = replica.ledger.last_executed_hash
    stranger = create_leaf(held, replica.view + 1, ())
    for message in (
        SyncRequest(0, 0),
        BlockRequest(held),
        BlockResponse(stranger),
        ViewAnnounce(1),
        ViewAnnounce(replica.view + 50),
    ):
        assert replica.on_message(outsider, message) == []
    assert stranger.hash not in replica.store
    # A peer asking the same is served.
    (reply,) = replica.on_message(1, BlockRequest(held))
    assert reply.dests == (1,) and reply.payload.block.hash == held


def test_leader_schedule_round_robin():
    system = build(f=1)
    replica = system.replicas[0]
    assert [replica.leader_of(v) for v in range(6)] == [0, 1, 2, 0, 1, 2]
    assert replica.is_leader(0) and not replica.is_leader(1)


def test_cpu_charges_accumulate_with_real_cost_model():
    config = small_config("damysus", costs=CostModel())
    system = ConsensusSystem(config)
    system.run_until_views(3, max_time_ms=60_000)
    assert all(r.cpu_time_charged > 0 for r in system.replicas)
    # The leader rotates every view, so no replica should have charged
    # wildly more than the others in a fault-free run.
    charges = sorted(r.cpu_time_charged for r in system.replicas)
    assert charges[-1] < charges[0] * 10


def test_crashed_replica_ignores_everything():
    system = build()
    system.start()
    replica = system.replicas[2]
    replica.crash()
    view_before = replica.view

    class Msg:
        view = view_before
        msg_type = "x"

        def wire_size(self):
            return 10

    assert replica.on_message(0, Msg()) == []
    assert replica.view == view_before
