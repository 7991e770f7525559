"""Unit tests of HotStuff's locking scheme and SafeNode predicate."""

import pytest

from repro.core.block import create_leaf
from repro.core.certificate import QuorumCert, genesis_qc, vote_payload
from repro.core.mempool import Transaction
from repro.core.phases import Phase
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def tx(i):
    return Transaction(client_id=0, tx_id=i, payload_bytes=0)


@pytest.fixture
def replica():
    system = ConsensusSystem(small_config("hotstuff"))
    return system.replicas[0]


def qc_for(replica, block, view, phase=Phase.PREPARE):
    payload = vote_payload(view, phase, block.hash)
    sigs = tuple(replica.scheme.sign(s, payload) for s in range(replica.quorum))
    return QuorumCert(view, block.hash, phase, sigs)


def test_safenode_accepts_extension_of_lock(replica):
    locked_block = create_leaf(replica.store.genesis.hash, 1, (tx(1),))
    replica.store.add(locked_block)
    replica.locked_qc = qc_for(replica, locked_block, 1, Phase.PRECOMMIT)
    child = create_leaf(locked_block.hash, 2, (tx(2),))
    replica.store.add(child)
    justify = qc_for(replica, locked_block, 1)
    assert replica._safe_node(child, justify)


def test_safenode_accepts_transitive_extension(replica):
    b1 = create_leaf(replica.store.genesis.hash, 1, (tx(1),))
    b2 = create_leaf(b1.hash, 2, (tx(2),))
    b3 = create_leaf(b2.hash, 3, (tx(3),))
    for b in (b1, b2, b3):
        replica.store.add(b)
    replica.locked_qc = qc_for(replica, b1, 1, Phase.PRECOMMIT)
    assert replica._safe_node(b3, qc_for(replica, b2, 2))


def test_safenode_rejects_conflicting_low_justify(replica):
    locked_block = create_leaf(replica.store.genesis.hash, 2, (tx(1),))
    replica.store.add(locked_block)
    replica.locked_qc = qc_for(replica, locked_block, 2, Phase.PRECOMMIT)
    # A conflicting branch justified at a view NOT above the lock.
    stray = create_leaf(replica.store.genesis.hash, 3, (tx(2),))
    replica.store.add(stray)
    low_justify = genesis_qc(replica.store.genesis.hash)  # view 0 < lock 2
    assert not replica._safe_node(stray, low_justify)


def test_safenode_liveness_rule_unlocks_on_higher_view(replica):
    locked_block = create_leaf(replica.store.genesis.hash, 2, (tx(1),))
    replica.store.add(locked_block)
    replica.locked_qc = qc_for(replica, locked_block, 2, Phase.PRECOMMIT)
    # A conflicting branch prepared at view 5 > 2: accept (liveness).
    other = create_leaf(replica.store.genesis.hash, 5, (tx(2),))
    replica.store.add(other)
    parent_qc = qc_for(replica, other, 5)
    child = create_leaf(other.hash, 6, (tx(3),))
    replica.store.add(child)
    assert replica._safe_node(child, parent_qc)


def test_lock_only_rises(replica):
    """`_handle_qc` never replaces the lock with an older certificate."""
    b_new = create_leaf(replica.store.genesis.hash, 5, (tx(1),))
    replica.store.add(b_new)
    high = qc_for(replica, b_new, 5, Phase.PRECOMMIT)
    replica.locked_qc = high
    from repro.core.messages import QCMsg

    b_old = create_leaf(replica.store.genesis.hash, 3, (tx(2),))
    replica.store.add(b_old)
    old = qc_for(replica, b_old, 3, Phase.PRECOMMIT)
    replica.view = 3
    replica.dispatch(replica.leader_of(3), QCMsg(3, Phase.PRECOMMIT, old))
    assert replica.locked_qc is high
