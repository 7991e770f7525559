"""Handler-level negative tests: malformed or forged messages change nothing.

Each test injects a crafted message directly into a running replica and
asserts the replica neither votes, advances, executes nor crashes - the
unhappy paths of Fig 2a's abort conditions.
"""

import pytest

from repro.core.block import create_leaf
from repro.core.certificate import Accumulator, QuorumCert, vote_payload
from repro.core.commitment import Commitment
from repro.core.mempool import Transaction
from repro.core.messages import BlockProposal, CommitmentMsg, ProposalMsg, QCMsg, VoteMsg
from repro.core.phases import Phase
from repro.crypto.scheme import Signature
from repro.protocols.damysus import KIND_DECIDE, KIND_NEW_VIEW, KIND_PREP_QC
from repro.protocols.registry import SPECS
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def running(protocol):
    """A system advanced into steady state, paused for injection."""
    system = ConsensusSystem(small_config(protocol))
    system.start()
    system.sim.run(until=120.0)
    return system


def snapshot(replica):
    return (replica.view, replica.ledger.height())


def fake_sig(signer=0):
    return Signature(signer, b"\x00" * 32, "hmac")


def tx(i=0):
    return Transaction(client_id=0, tx_id=i, payload_bytes=0)


# -- Damysus ---------------------------------------------------------------------


def test_damysus_rejects_proposal_from_non_leader():
    system = running("damysus")
    replica = system.replicas[(system.replicas[0].view + 1) % 3]
    view = replica.view
    wrong_sender = (view + 1) % 3  # not the leader of `view`
    block = create_leaf(replica.store.genesis.hash, view, (tx(),))
    acc = Accumulator(view, 0, replica.store.genesis.hash, fake_sig(), count=2)
    before = snapshot(replica)
    replica.dispatch(wrong_sender, BlockProposal(view, block, acc, fake_sig()))
    assert snapshot(replica) == before


def test_damysus_rejects_wrong_size_accumulator():
    system = running("damysus")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    block = create_leaf(replica.store.genesis.hash, view, (tx(),))
    acc = Accumulator(view, 0, replica.store.genesis.hash, fake_sig(), count=99)
    before = snapshot(replica)
    replica.dispatch(leader, BlockProposal(view, block, acc, fake_sig()))
    assert snapshot(replica) == before


def test_damysus_rejects_forged_leader_signature():
    system = running("damysus")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    block = create_leaf(replica.store.genesis.hash, view, (tx(),))
    # Right shape, but the accumulator/leader signatures are garbage.
    acc = Accumulator(view, 0, replica.store.genesis.hash, fake_sig(), count=replica.quorum)
    sent = []
    system.network.add_tap(lambda s, d, p: sent.append(p))
    replica.dispatch(leader, BlockProposal(view, block, acc, fake_sig()))
    votes = [p for p in sent if isinstance(p, CommitmentMsg) and "vote" in p.kind]
    assert votes == []


def test_damysus_rejects_forged_decide():
    system = running("damysus")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    phi = Commitment(
        b"\x13" * 32, view, None, None, Phase.PRECOMMIT,
        tuple(fake_sig(i) for i in range(replica.quorum)),
    )
    before = snapshot(replica)
    replica.dispatch(leader, CommitmentMsg(phi, KIND_DECIDE))
    assert snapshot(replica) == before  # no execution, no view change


def test_damysus_ignores_replica_signed_new_view():
    """A new-view commitment must be TEE-signed; a replica key is refused."""
    system = running("damysus")
    leader_pid = None
    for replica in system.replicas:
        if replica.is_leader(replica.view):
            leader_pid = replica.pid
            break
    if leader_pid is None:
        leader_pid = 0
    leader = system.replicas[leader_pid]
    view = leader.view
    payload_phi = Commitment(None, view, b"\x00" * 32, 0, Phase.NEW_VIEW, ())
    sig = leader.scheme.sign(1, payload_phi.signed_payload())  # replica key!
    phi = Commitment(None, view, b"\x00" * 32, 0, Phase.NEW_VIEW, (sig,))
    count_before = leader._new_views.count(view)
    leader.dispatch(1, CommitmentMsg(phi, KIND_NEW_VIEW))
    assert leader._new_views.count(view) == count_before


def test_damysus_prep_qc_with_bad_sigs_is_not_stored():
    system = running("damysus")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    phi = Commitment(
        b"\x14" * 32, view, b"\x00" * 32, 0, Phase.PREPARE,
        tuple(fake_sig(i) for i in range(replica.quorum)),
    )
    prepared_before = replica.checker.prepared_hash
    replica.dispatch(leader, CommitmentMsg(phi, KIND_PREP_QC))
    assert replica.checker.prepared_hash == prepared_before


# -- HotStuff ---------------------------------------------------------------------


def test_hotstuff_rejects_proposal_not_extending_justify():
    system = running("hotstuff")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    qc = replica.prepare_qc
    stray = create_leaf(b"\x55" * 32, view, (tx(),))  # wrong parent
    sent = []
    system.network.add_tap(lambda s, d, p: sent.append(p))
    replica.dispatch(leader, ProposalMsg(view, stray, qc))
    assert not any(isinstance(p, VoteMsg) for p in sent)


def test_hotstuff_rejects_undersized_qc():
    system = running("hotstuff")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    h = b"\x66" * 32
    small_qc = QuorumCert(
        view, h, Phase.PREPARE,
        (replica.scheme.sign(0, vote_payload(view, Phase.PREPARE, h)),),
    )
    before = replica.prepare_qc
    replica.dispatch(leader, QCMsg(view, Phase.PREPARE, small_qc))
    assert replica.prepare_qc == before


def test_hotstuff_rejects_qc_with_duplicate_signers():
    system = running("hotstuff")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    h = b"\x67" * 32
    sig = replica.scheme.sign(0, vote_payload(view, Phase.PRECOMMIT, h))
    dup_qc = QuorumCert(view, h, Phase.PRECOMMIT, (sig,) * replica.quorum)
    locked_before = replica.locked_qc
    replica.dispatch(leader, QCMsg(view, Phase.PRECOMMIT, dup_qc))
    assert replica.locked_qc == locked_before


def test_hotstuff_vote_for_leader_only():
    """Votes sent to a non-leader are ignored entirely."""
    system = running("hotstuff")
    replica = system.replicas[0]
    view = replica.view
    if replica.is_leader(view):
        view += 1  # pick a view this replica does not lead
        if replica.is_leader(view):
            view += 1
    h = b"\x68" * 32
    msg = VoteMsg(view, Phase.PREPARE, h,
                  replica.scheme.sign(1, vote_payload(view, Phase.PREPARE, h)))
    count_before = replica._votes.count((view, Phase.PREPARE, h))
    replica.dispatch(1, msg)
    assert replica._votes.count((view, Phase.PREPARE, h)) == count_before


# -- every protocol: what the handler table does not name is dropped ------------------


def volatile_state(replica):
    """Everything a handler could have touched, for before/after equality."""
    return (
        replica.view,
        replica.ledger.height(),
        {attr: getattr(replica, attr).pending_keys() for attr in replica.COLLECTORS},
        {attr: set(getattr(replica, attr)) for attr in replica.VIEW_SETS},
        replica.checker.step if replica.checker is not None else None,
        replica.cpu_time_charged,
    )


@pytest.mark.parametrize("protocol", SPECS)
def test_untabled_type_and_unknown_kind_are_dropped(protocol):
    system = running(protocol)
    replica = system.replicas[0]
    view = replica.view

    class Untabled:
        msg_type = "untabled"

        def wire_size(self):
            return 10

    untabled = Untabled()
    untabled.view = view
    # A well-formed commitment for the current view, under a kind no table names.
    phi = Commitment(b"\x21" * 32, view, None, None, Phase.PREPARE, (fake_sig(),))
    unknown_kind = CommitmentMsg(phi, "no-such-kind")
    assert Untabled not in type(replica).HANDLERS
    before = volatile_state(replica)
    for payload in (untabled, unknown_kind):
        for sender in (replica.leader_of(view), replica.pid):
            assert replica.on_message(sender, payload) == []  # no effect emitted
    assert volatile_state(replica) == before
