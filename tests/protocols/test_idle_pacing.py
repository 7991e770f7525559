"""Idle pacing (``repro.protocols.idle``): a leader with nothing to order
parks its proposal until a transaction is admitted, or until the
heartbeat - half its view timeout - proposes anyway.  One rule on every
protocol's ``_propose``, so every behaviour is checked for all seven."""

import pytest

from repro.adversary import get_adversary
from repro.core.mempool import Transaction
from repro.core.messages import ClientRequest
from repro.protocols.idle import ParkedProposal
from repro.protocols.registry import SPECS
from repro.protocols.replica import BaseReplica
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config

PROTOCOLS = tuple(SPECS)
TIMEOUT_MS = 500.0  # small_config's; the heartbeat is half of it
HEARTBEAT_MS = TIMEOUT_MS / 2


def idle_cluster(protocol, **overrides):
    """A closed-loop cluster no client talks to."""
    return ConsensusSystem(small_config(protocol, open_loop=False, **overrides))


def run_until_parked(system, limit_ms=5_000.0):
    """Step until a replica parks a proposal, and return it within a
    millisecond of parking: a whole heartbeat away."""
    before = [replica.parked for replica in system.replicas]
    deadline = system.sim.now + limit_ms
    while system.sim.now < deadline:
        system.run(1.0)
        for replica, old in zip(system.replicas, before, strict=True):
            if replica.parked is not None and replica.parked is not old:
                return replica
    raise AssertionError("no leader parked")


def request_everywhere(system, tx_id):
    """What a client's broadcast does: every replica admits the request."""
    tx = Transaction(client_id=7, tx_id=tx_id, payload_bytes=0, submitted_at=system.sim.now)
    for replica in system.replicas:
        replica.on_message(99, ClientRequest(7, tx))
    return tx.key


def proposals_by(system, pid):
    """``(time, view)`` of every proposal ``pid`` sends from here on."""
    seen = []
    kinds = system.replicas[pid].STALE_BLOCK_MSGS
    system.network.add_tap(
        lambda src, dst, payload: src == pid and isinstance(payload, kinds)
        and seen.append((system.sim.now, payload.view))
    )
    return seen


def recording_view_entries(monkeypatch, pid):
    """Virtual times at which replica ``pid`` enters a new view."""
    entered = []
    advance = BaseReplica.advance_view

    def recording(self, new_view):
        if self.pid == pid and new_view > self.view:
            entered.append(self.now)
        advance(self, new_view)

    monkeypatch.setattr(BaseReplica, "advance_view", recording)
    return entered


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_idle_cluster_changes_view_at_the_heartbeat_and_never_times_out(
    protocol, monkeypatch
):
    """(a) Ten virtual seconds without a request: no pacemaker timeout
    fires, every view lasts at least a heartbeat, and every block is empty."""
    entered = recording_view_entries(monkeypatch, pid=0)
    system = idle_cluster(protocol)
    system.run(10_000.0)
    assert [r.pacemaker.timeouts_fired for r in system.replicas] == [0] * len(system.replicas)
    assert len(entered) >= 10_000.0 / TIMEOUT_MS  # the cluster does move ...
    gaps = [b - a for a, b in zip([0.0, *entered], entered, strict=False)]
    assert min(gaps) >= HEARTBEAT_MS  # ... but only as fast as the heartbeat
    assert all(not block.transactions for block in system.replicas[0].ledger.executed)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_one_request_to_an_idle_cluster_is_executed_everywhere_within_a_heartbeat(protocol):
    """(b) The admission wakes the parked leader at once.  The chained
    pair's empty followers flush the block before a leader parks again."""
    system = idle_cluster(protocol)
    system.run(2_000.0)
    run_until_parked(system)
    sent_at = system.sim.now
    key = request_everywhere(system, tx_id=1)
    while not all(key in r.ledger.applied for r in system.replicas):
        system.run(1.0)
        assert system.sim.now - sent_at < HEARTBEAT_MS, "waited for a heartbeat"
    run_until_parked(system)
    carried = [block for block in system.replicas[0].ledger.executed if block.transactions]
    assert [block.client_keys() for block in carried] == [(key,)]
    assert system.oracle.safe


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_leader_that_crashes_while_parked_proposes_nothing_stale(protocol):
    """(c) The crash cancels the heartbeat: recovered before it would have
    fired, the replica never proposes in the view it parked in."""
    system = idle_cluster(protocol)
    system.run(1_000.0)
    leader = run_until_parked(system)
    parked = leader.parked
    sent = proposals_by(system, leader.pid)
    leader.crash()
    assert leader.parked is None and not parked.active
    system.run(HEARTBEAT_MS / 5)
    leader.recover()
    system.run(4 * TIMEOUT_MS)
    assert parked.view not in [view for _, view in sent]
    assert leader.view > parked.view  # the cluster went on without it
    assert system.oracle.safe


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_heartbeat_armed_in_an_earlier_view_never_proposes_into_a_later_one(protocol):
    """(d) A view change cancels the parked proposal: up to well past the
    moment its heartbeat was due, the leader proposes only in the later
    view it leads, and only once that view's own heartbeat is up."""
    system = idle_cluster(protocol)
    system.run(1_000.0)
    leader = run_until_parked(system)
    old, due = leader.parked, system.sim.now + HEARTBEAT_MS
    sent = proposals_by(system, leader.pid)
    later = old.view + len(system.replicas)  # the next view it leads
    for replica in system.replicas:
        replica.advance_view(later)
    assert not old.active and leader.parked is not old
    parked_again_at = None
    while system.sim.now < due + HEARTBEAT_MS / 2:
        system.run(1.0)
        if parked_again_at is None and leader.parked and leader.parked.view == later:
            parked_again_at = system.sim.now
    if protocol != "chained-hotstuff":
        # A chained HotStuff leader that jumped proposes on the new-views
        # its followers send when they time out; nothing parks before that.
        assert parked_again_at is not None
    for at, view in sent:
        assert view == later and at >= parked_again_at - 1.0 + HEARTBEAT_MS
    assert system.oracle.safe


@pytest.mark.parametrize(
    "protocol,adversary",
    [(p, get_adversary("equivocate").replica_class(p)) for p in ("damysus", "hotstuff")],
)
def test_an_adversary_override_goes_through_the_rule_and_is_still_caught(protocol, adversary):
    """(e) The equivocator's own ``_propose`` is wrapped, once: it parks
    while idle, and its conflicting proposals fork nothing under the
    strict ``SafetyOracle``."""
    behaviour = get_adversary("equivocate").behaviour
    rule = vars(behaviour)["_propose"]
    assert adversary._propose is rule and "_propose" not in vars(adversary)
    assert rule.idle_rule and rule.__wrapped__.__qualname__ == f"{behaviour.__name__}._propose"
    assert not getattr(rule.__wrapped__, "idle_rule", False)
    system = ConsensusSystem(
        small_config(protocol, open_loop=False, num_clients=2, client_interval_ms=20.0,
                     client_total_txs=25),
        strict_safety=True,
        replica_overrides={1: adversary},
    )
    equivocator = system.replicas[1]
    while sum(len(c.completed) for c in system.clients) < 50:
        system.run(100.0)
        assert system.sim.now < 60_000.0
    while equivocator.parked is None:
        system.run(1.0)
        assert system.sim.now < 60_000.0
    assert isinstance(equivocator.parked, ParkedProposal)
    attempts = getattr(equivocator, "failed_equivocations", 0) or equivocator.equivocations
    assert attempts > 0
    system.run(2_000.0)
    assert system.oracle.safe


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_no_block_is_proposed_empty_while_a_transaction_waits(protocol, monkeypatch):
    """(f) Under sparse traffic, a block is empty only when every resident
    of the leader's pool rides an uncommitted ancestor already (the
    chained pipeline's flush)."""
    empty_with_waiting = []
    blocks = []
    new_block = BaseReplica._new_block

    def recording(self, extends, view):
        parent = extends if isinstance(extends, bytes) else extends.hash
        waiting = self.mempool.resident_keys() - self._uncommitted_keys(parent)
        block = new_block(self, extends, view)
        blocks.append(block)
        if waiting and not block.transactions:
            empty_with_waiting.append((self.pid, view, sorted(waiting)))
        return block

    monkeypatch.setattr(BaseReplica, "_new_block", recording)
    system = ConsensusSystem(
        small_config(protocol, open_loop=False, num_clients=2, client_interval_ms=60.0,
                     client_poisson=True, client_total_txs=40)
    )
    system.run(6_000.0)
    assert sum(len(c.completed) for c in system.clients) == 80
    assert empty_with_waiting == []
    assert any(block.transactions for block in blocks)
    assert system.oracle.safe
