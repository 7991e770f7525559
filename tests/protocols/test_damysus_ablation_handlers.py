"""Negative-path tests specific to Damysus-C and Damysus-A handlers."""


from repro.core.block import create_leaf
from repro.core.certificate import Accumulator, genesis_qc
from repro.core.commitment import Commitment
from repro.core.mempool import Transaction
from repro.core.messages import BlockProposal, NewViewAMsg, ProposalAMsg
from repro.core.phases import Phase
from repro.crypto.scheme import Signature
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def running(protocol):
    system = ConsensusSystem(small_config(protocol))
    system.start()
    system.sim.run(until=120.0)
    return system


def fake_sig(signer=0):
    return Signature(signer, b"\x00" * 32, "hmac")


def tx(i=0):
    return Transaction(client_id=0, tx_id=i, payload_bytes=0)


# -- Damysus-C -------------------------------------------------------------------


def test_damysus_c_rejects_proposal_with_wrong_view_justification():
    system = running("damysus-c")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    block = create_leaf(replica.store.genesis.hash, view, (tx(),))
    # TEE-style new-view commitment for the WRONG view.
    justify = Commitment(None, view + 5, replica.store.genesis.hash, 0,
                         Phase.NEW_VIEW, (fake_sig(),))
    sent = []
    system.network.add_tap(lambda s, d, p: sent.append(p))
    replica.dispatch(
        leader,
        BlockProposal(view, block, None, fake_sig(), justify_commitment=justify),
    )
    assert not any(
        getattr(p, "kind", "").endswith("prep-vote") for p in sent
    )


def test_damysus_c_rejects_proposal_without_justification():
    system = running("damysus-c")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    block = create_leaf(replica.store.genesis.hash, view, (tx(),))
    before = (replica.view, replica.ledger.height())
    replica.dispatch(leader, BlockProposal(view, block, None, fake_sig()))
    assert (replica.view, replica.ledger.height()) == before


def test_damysus_c_locked_checker_rejects_stale_commitments_in_decides():
    system = running("damysus-c")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    from repro.protocols.damysus_c import KIND_DECIDE
    from repro.core.messages import CommitmentMsg

    phi = Commitment(
        b"\x21" * 32, view, None, None, Phase.COMMIT,
        tuple(fake_sig(i) for i in range(replica.quorum)),
    )
    height = replica.ledger.height()
    replica.dispatch(leader, CommitmentMsg(phi, KIND_DECIDE))
    assert replica.ledger.height() == height


# -- Damysus-A -------------------------------------------------------------------


def test_damysus_a_rejects_unfinalized_accumulator():
    system = running("damysus-a")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    block = create_leaf(replica.store.genesis.hash, view, (tx(),))
    working = Accumulator(view, 0, replica.store.genesis.hash, fake_sig(),
                          ids=tuple(range(replica.quorum)))
    voted_before = set(replica._voted)
    replica.dispatch(leader, ProposalAMsg(view, block, working, fake_sig()))
    assert replica._voted == voted_before


def test_damysus_a_rejects_replica_signed_accumulator():
    """The accumulator certificate must come from a TEE identity."""
    system = running("damysus-a")
    replica = system.replicas[0]
    view = replica.view
    leader = replica.leader_of(view)
    block = create_leaf(replica.store.genesis.hash, view, (tx(),))
    unsigned = Accumulator(view, 0, replica.store.genesis.hash,
                           Signature(0, b"", "hmac"), count=replica.quorum)
    # Signed correctly over the payload, but with replica 0's key.
    sig = replica.scheme.sign(0, unsigned.signed_payload())
    forged = Accumulator(view, 0, replica.store.genesis.hash, sig,
                         count=replica.quorum)
    voted_before = set(replica._voted)
    replica.dispatch(leader, ProposalAMsg(view, block, forged, fake_sig()))
    assert replica._voted == voted_before


def test_damysus_a_leader_skips_reports_with_bad_signatures():
    system = running("damysus-a")
    leader = next(r for r in system.replicas if r.is_leader(r.view))
    view = leader.view
    bottom = genesis_qc(leader.store.genesis.hash)
    count_before = leader._new_views.count(view)
    # A report with a junk sender signature still lands in the collector
    # (dedup happens before expensive verification)...
    forged = NewViewAMsg(view, bottom, fake_sig(signer=99))
    leader.dispatch(99, forged)
    # ...but the accumulator refuses it during accumulation, so no
    # proposal can be built from forged reports alone.
    assert leader._new_views.count(view) >= count_before


def test_damysus_a_proposal_from_wrong_sender_ignored():
    system = running("damysus-a")
    replica = system.replicas[0]
    view = replica.view
    wrong = (replica.leader_of(view) + 1) % replica.num_replicas
    block = create_leaf(replica.store.genesis.hash, view, (tx(),))
    acc = Accumulator(view, 0, replica.store.genesis.hash, fake_sig(),
                      count=replica.quorum)
    voted_before = set(replica._voted)
    replica.dispatch(wrong, ProposalAMsg(view, block, acc, fake_sig()))
    assert replica._voted == voted_before
