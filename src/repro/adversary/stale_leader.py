"""Stale-certificate leaders: proposing extensions of old blocks.

Section 4.1's core observation: in HotStuff "a Byzantine leader could
produce an old certificate, and the backups would not have a way to
verify whether the leader correctly picked the latest prepared block" -
safety survives only thanks to the locking phase.  In Damysus the
accumulator removes the choice: a leader that wants to understate must
feed the accumulator f+1 genuine new-view commitments, and any such set
intersects the f+1 checkers that stored an executed block, so the
certified "highest prepared" can never fall below an executed block.

The attack has one body per engine: HotStuff's leader picks its own
certificate, a commitment-engine leader can only choose which reports
to certify.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import Behaviour
from repro.core.block import create_leaf
from repro.core.certificate import genesis_qc
from repro.core.messages import ProposalMsg
from repro.errors import TEERefusal
from repro.protocols.damysus import DamysusReplica
from repro.protocols.replica import BaseReplica
from repro.protocols.state import QuorumCollector


class Stale(Behaviour):
    """Proposes on the stalest certificate its engine lets it name.

    Under HotStuff it always extends the genesis block: backups'
    SafeNode predicate rejects the proposal as soon as they hold any
    lock, so the leader's views time out - safety is preserved by
    locking, at a liveness cost.

    Under the commitment engine it collects every replica's new-view
    commitment and accumulates the *lowest* f+1: the strongest
    understating attack the accumulator allows, since the leader may
    choose which commitments to feed it but cannot forge their contents.
    Quorum intersection then guarantees the chosen set still contains a
    checker that stored every executed block, so the proposal always
    extends the latest executed block - the attack can only waste
    bandwidth, never fork the ledger.
    """

    WIRING = ("stale_proposals", "understated_views", "discarded_commitments")
    stale_proposals = understated_views = discarded_commitments = 0

    @classmethod
    def unfit(cls, base: type[BaseReplica]) -> str | None:
        if ProposalMsg in base.HANDLERS or issubclass(base, DamysusReplica):
            return None
        return "its leader neither names its own certificate nor accumulates new-view commitments"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if isinstance(self, DamysusReplica):
            # Wait for every replica's new-view before proposing, to
            # maximize the choice of which commitments to discard.
            self._new_views = QuorumCollector(self.num_replicas)

    def _propose(self, view: int, reports: Any) -> None:
        if isinstance(self, DamysusReplica):
            self._understate(view, reports)
            return
        self._proposed.add(view)
        self.stale_proposals += 1
        bottom = genesis_qc(self.store.genesis.hash)
        block = create_leaf(
            bottom.block_hash, view, self.mempool.take_block(self.now),
            created_at=self.now,
        )
        self.store.add(block)
        self.broadcast_charged(ProposalMsg(view, block, bottom), include_self=True)

    def _understate(self, view: int, phis: Any) -> None:
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
