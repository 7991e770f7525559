"""Stale-certificate leaders: proposing extensions of old blocks.

Section 4.1's core observation: in HotStuff "a Byzantine leader could
produce an old certificate, and the backups would not have a way to
verify whether the leader correctly picked the latest prepared block" -
safety survives only thanks to the locking phase.  In Damysus the
accumulator removes the choice: a leader that wants to understate must
feed the accumulator f+1 genuine new-view commitments, and any such set
intersects the f+1 checkers that stored an executed block, so the
certified "highest prepared" can never fall below an executed block.
"""

from __future__ import annotations

from repro.errors import TEERefusal
from repro.core.block import create_leaf
from repro.core.certificate import genesis_qc
from repro.core.messages import ProposalMsg
from repro.protocols.damysus import DamysusReplica
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.state import QuorumCollector


class StaleHotStuffLeader(HotStuffReplica):
    """Always proposes an extension of the genesis block.

    Backups' SafeNode predicate rejects the proposal as soon as they hold
    any lock, so the leader's views time out - safety is preserved by
    locking, at a liveness cost.
    """

    WIRING = ("stale_proposals",)
    stale_proposals = 0

    def _propose(self, view: int, new_views) -> None:
        self._proposed.add(view)
        self.stale_proposals += 1
        bottom = genesis_qc(self.store.genesis.hash)
        block = create_leaf(
            bottom.block_hash, view, self.mempool.take_block(self.now),
            created_at=self.now,
        )
        self.store.add(block)
        self.broadcast_charged(ProposalMsg(view, block, bottom), include_self=True)


class StaleDamysusLeader(DamysusReplica):
    """Collects extra new-view commitments and accumulates the *lowest* f+1.

    This is the strongest understating attack the accumulator allows: the
    leader may choose which f+1 commitments to feed it, but it cannot
    forge their contents.  Quorum intersection then guarantees the chosen
    set still contains a checker that stored every executed block, so the
    proposal always extends the latest executed block - the attack can
    only waste bandwidth, never fork the ledger.
    """

    WIRING = ("understated_views", "discarded_commitments")
    understated_views = discarded_commitments = 0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Wait for every replica's new-view before proposing, to maximize
        # the choice of which commitments to discard.
        self._new_views = QuorumCollector(self.num_replicas)

    def _propose(self, view: int, phis) -> None:
        lowest = sorted(phis, key=lambda phi: (phi.v_just or 0))[: self.quorum]
        if len(lowest) < self.quorum:
            return
        self.discarded_commitments += len(phis) - len(lowest)
        if max((p.v_just or 0) for p in lowest) < max((p.v_just or 0) for p in phis):
            self.understated_views += 1
        try:
            super()._propose(view, lowest)
        except TEERefusal:  # noqa: S110 - the faulty leader shrugs off its own checker refusing
            pass
