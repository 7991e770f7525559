"""Min-fee mempool spammer: drown the ingest pipeline in junk.

A Byzantine replica does not need to touch consensus to hurt the
system: it can spray bottom-of-the-fee-market transactions at every
peer and try to fill their bounded mempools, evict honest work, and
latch the backpressure watermark.  The ingest pipeline's defenses are
exactly what this probes - per-sender token buckets rate-limit the
spammer's pid, the priority pool evicts lowest-fee-newest-first (the
spam itself), an incoming min-fee transaction bounces as ``POOL_FULL``
once the pool is spam-saturated, and fee-ordered draining keeps honest
paying traffic at the front of every proposal.

The spam is mostly fee-0 with a periodic fee-1 "tickler" so a saturated
pool also exercises the eviction path (a strictly-cheapest arrival is
bounced instead of admitted, so an all-zero flood would never evict).
"""

from __future__ import annotations

import itertools

from repro.core.mempool import Transaction
from repro.core.messages import ClientRequest
from repro.protocols.damysus import DamysusReplica
from repro.protocols.hotstuff import HotStuffReplica

#: Synthetic client id space for spam (far above real client ids).
SPAM_CLIENT_BASE = 1_000_000


class _MempoolSpammerMixin:
    """Flood peers with minimum-fee transactions on a steady timer."""

    #: Transactions sprayed per peer per tick.
    spam_burst = 25
    #: Virtual ms between ticks.
    spam_interval_ms = 20.0
    #: Every k-th spam transaction carries fee 1 instead of 0, churning
    #: the eviction path of an already-saturated pool.
    tickle_every = 4
    WIRING = ("spam_sent", "_spam_ids")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spam_sent = 0
        self._spam_ids = itertools.count()

    def start(self) -> None:
        super().start()
        self._spam_tick()

    def _spam_tick(self) -> None:
        if self.crashed:
            return
        for _ in range(self.spam_burst):
            tx_id = next(self._spam_ids)
            tx = Transaction(
                client_id=SPAM_CLIENT_BASE + self.pid,
                tx_id=tx_id,
                payload_bytes=0,
                submitted_at=self.now,
                fee=1 if tx_id % self.tickle_every == self.tickle_every - 1 else 0,
            )
            request = ClientRequest(tx.client_id, tx)
            for pid in self.replica_pids:
                if pid != self.pid:
                    self.send(pid, request)
                    self.spam_sent += 1
        self.set_timer(self.spam_interval_ms, self._spam_tick)


class MempoolSpammerDamysusReplica(_MempoolSpammerMixin, DamysusReplica):
    """Damysus replica flooding peers with min-fee transactions."""


class MempoolSpammerHotStuffReplica(_MempoolSpammerMixin, HotStuffReplica):
    """HotStuff replica flooding peers with min-fee transactions."""
