"""The pipelined vote engine (``repro.protocols.pipeline``): the chain walk
at both declared depths, and chained HotStuff's 2-chain lock."""

import pytest

from repro.core.block import Block, create_chain
from repro.core.certificate import QuorumCert, genesis_qc, vote_payload
from repro.core.mempool import TxBatch
from repro.core.messages import ChainedProposal
from repro.core.phases import Phase
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config

DEPTHS = [("chained-hotstuff", 3), ("chained-damysus", 2)]


def replica_of(protocol):
    return ConsensusSystem(small_config(protocol)).replicas[0]


def qc_for(replica, block):
    """A valid prepare certificate of ``block``, signed by a quorum."""
    payload = vote_payload(block.view, Phase.PREPARE, block.hash)
    sigs = tuple(replica.scheme.sign(pid, payload) for pid in range(replica.quorum))
    return QuorumCert(block.view, block.hash, Phase.PREPARE, sigs)


def chain(replica, length):
    """Genesis, then blocks of views 1..length, each certifying its direct parent."""
    blocks = [replica.store.genesis]
    for view in range(1, length + 1):
        parent = blocks[-1]
        justify = genesis_qc(parent.hash) if parent.is_genesis else qc_for(replica, parent)
        blocks.append(create_chain(justify, view, TxBatch()))
    return blocks


@pytest.mark.parametrize("protocol,depth", DEPTHS)
def test_the_walk_stops_at_the_declared_depth(protocol, depth):
    replica = replica_of(protocol)
    assert replica.DEPTH == depth
    blocks = chain(replica, 5)
    for block in blocks[1:]:
        replica.store.add(block)
    links = replica._links(blocks[5])
    assert [block for block, _ in links] == blocks[4 : 4 - depth : -1]
    assert [qc.hash for _, qc in links] == [block.hash for block, _ in links]
    # Near genesis the chain is shorter than the depth: genesis is the end.
    assert [block for block, _ in replica._links(blocks[1])] == [blocks[0]]


@pytest.mark.parametrize("protocol,depth", DEPTHS)
def test_the_walk_stops_at_a_missing_body(protocol, depth):
    replica = replica_of(protocol)
    blocks = chain(replica, 5)
    for block in blocks[1:]:
        if block is not blocks[3]:
            replica.store.add(block)
    assert [block for block, _ in replica._links(blocks[5])] == [blocks[4]]


@pytest.mark.parametrize("protocol,depth", DEPTHS)
def test_the_walk_stops_where_a_justification_skips_the_direct_parent(protocol, depth):
    replica = replica_of(protocol)
    blocks = chain(replica, 3)
    for block in blocks[1:]:
        replica.store.add(block)
    # Extends b3 but is justified by b2's certificate: no link at all.
    stray = Block(blocks[3].hash, 4, TxBatch(), justify=qc_for(replica, blocks[2]))
    assert replica._links(stray) == []
    # One link down: the certified parent is the stray block, which ends the walk.
    replica.store.add(stray)
    above = create_chain(qc_for(replica, stray), 5, TxBatch())
    assert [block for block, _ in replica._links(above)] == [stray]


def test_chained_hotstuff_locks_only_on_a_two_chain():
    replica = replica_of("chained-hotstuff")
    scheme = replica.scheme

    def propose(block):
        leader = replica.leader_of(block.view)
        sig = scheme.sign(leader, vote_payload(block.view, Phase.PREPARE, block.hash))
        replica.on_message(leader, ChainedProposal(block.view, block, sig))
        assert replica.view == block.view + 1  # the proposal was taken

    blocks = chain(replica, 4)
    locks = []
    for block in blocks[1:]:
        propose(block)
        locks.append(replica.locked_qc.view)
    # b2 certifies b1 (a 1-chain): no lock; b3 above it makes the 2-chain.
    assert locks == [0, 0, 1, 2]
    # A certified block whose parent's body is missing forms no 2-chain,
    # however high the certificate it carries: the lock stays.
    fork = create_chain(qc_for(replica, blocks[1]), 3, TxBatch())  # never delivered
    orphan = create_chain(qc_for(replica, fork), 4, TxBatch())
    replica.store.add(orphan)
    propose(create_chain(qc_for(replica, orphan), 5, TxBatch()))
    assert replica.locked_qc.view == 2
