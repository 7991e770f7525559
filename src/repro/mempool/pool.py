"""The bounded, fee-prioritized replica mempool.

Replaces the seed deque: admission returns an explicit
:class:`~repro.core.mempool.AdmissionVerdict`, the pool is bounded in
both transaction count and bytes (evicting the lowest-priority resident
deterministically when full), duplicates and replays are rejected by
``(client_id, tx_id)``, per-sender token buckets cap the admitted rate,
and watermark backpressure refuses low-priority work before the hard
caps are hit.

Everything is pure and deterministic: no clocks, no unseeded
randomness, state transitions are a function of the call sequence
alone.  The same admissions in the same order therefore produce
byte-identical drained blocks under the simulator and the asyncio
runtime (the cross-runtime determinism tests assert exactly this).

A pool also learns what the chain did: :meth:`PriorityMempool.purge_committed`
drops the residents a committed block carried (every replica admitted the
client's broadcast, one leader proposed it), and
:meth:`PriorityMempool.take_block` drains around the keys an uncommitted
ancestor already carries, leaving those residents where they are.

Priority is ``(fee desc, arrival asc)`` for draining and the exact
reverse for eviction.  The pool keeps one *lane* per resident fee, an
insertion-ordered dict of that fee's residents, and the lanes' fees in
one sorted list: a drain walks the highest lane oldest first, an
eviction pops the lowest lane's newest resident, and a purge or a drain
deletes a key from its lane in place - no heap, no dead entries, nothing
to rebuild.  All paper workloads use ``fee=0``, one lane in arrival
order, which is FIFO - so the pool leaves every seed benchmark figure
bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Collection, KeysView

from repro.core.keyset import ClientKeySet
from repro.core.mempool import (
    SYNTHETIC_CLIENT_ID,
    TX_METADATA_BYTES,
    TX_RECORD,
    AdmissionVerdict,
    Transaction,
    TxBatch,
)
from repro.mempool.limiter import SenderRateLimiter
from repro.mempool.watermark import Watermark

#: Default resident-transaction cap (the paper's blocks are 400 txs, so
#: this is ~250 blocks of queued work before eviction starts).
DEFAULT_MAX_TXS = 100_000


class PriorityMempool:
    """Bounded priority mempool with admission control.

    The first three parameters match the seed ``Mempool`` signature, so
    every historical call site constructs an equivalent (FIFO, unbounded
    in practice) pool; the keyword-only parameters opt into the
    production behaviours.
    """

    def __init__(
        self,
        payload_bytes: int,
        block_size: int,
        open_loop: bool = True,
        *,
        max_txs: int = DEFAULT_MAX_TXS,
        max_bytes: int = 0,
        max_block_bytes: int = 0,
        high_watermark: float = 0.9,
        low_watermark: float = 0.7,
        rate_limit_per_ms: float = 0.0,
        rate_burst: float = 32.0,
    ) -> None:
        self.payload_bytes = payload_bytes
        self.block_size = block_size
        self.open_loop = open_loop
        self.max_txs = max_txs
        self.max_bytes = max_bytes  # 0 = unbounded by bytes
        self.max_block_bytes = max_block_bytes  # 0 = unbounded blocks
        self.limiter = SenderRateLimiter(rate_limit_per_ms, rate_burst)
        self.watermark = Watermark(high_watermark, low_watermark)
        self._next_synth = 0  # the next filler's tx_id
        #: Residents by (client_id, tx_id); the one index by key.
        self._residents: dict[tuple[int, int], Transaction] = {}
        #: Residents by fee, each lane in arrival order: drained oldest
        #: first, evicted *newest* first, so an overload sheds the
        #: latecomer, never a queued elder.
        self._lanes: dict[int, dict[tuple[int, int], Transaction]] = {}
        #: The lanes' fees, ascending: one entry per non-empty lane.
        self._fees: list[int] = []
        #: Replay memory: keys admitted and not since evicted, plus keys
        #: seen committed (residents, already-proposed and committed
        #: transactions all reject as DUPLICATE; an evicted transaction
        #: may be resubmitted).  Exact for the life of the pool; costs one
        #: entry per client plus one per evicted resident not resubmitted.
        self._seen = ClientKeySet()
        self._bytes = 0
        # -- monotone counters for stats()/health snapshots --------------
        self.admitted = 0
        self.drained = 0
        self.evicted = 0
        self.purged = 0  # residents dropped because another leader committed them
        self.rejected: dict[AdmissionVerdict, int] = {
            AdmissionVerdict.RATE_LIMITED: 0,
            AdmissionVerdict.POOL_FULL: 0,
            AdmissionVerdict.DUPLICATE: 0,
        }
        # The latch observes every change of fill, this first one included,
        # so admission reads it as it stands.
        self.watermark.update(self._fill())

    # -- admission ---------------------------------------------------------

    def admit(self, tx: Transaction, now: float) -> AdmissionVerdict:
        """Run the full admission pipeline on one submission.

        Order matters and is part of the contract: replay rejection
        first (a duplicate must never consume the sender's rate budget),
        then the sender's token bucket, then backpressure, then the hard
        caps (insert-then-evict, so a transaction that cannot displace
        anything cheaper bounces as ``POOL_FULL``).  Every change of fill
        updates the watermark, so backpressure is its latch as it stands.
        """
        key = (tx.client_id, tx.tx_id)
        if key in self._seen:
            self.rejected[AdmissionVerdict.DUPLICATE] += 1
            return AdmissionVerdict.DUPLICATE
        if not self.limiter.allow(tx.client_id, now):
            self.rejected[AdmissionVerdict.RATE_LIMITED] += 1
            return AdmissionVerdict.RATE_LIMITED
        if self.watermark.backpressured and tx.fee <= self._lowest_fee():
            self.rejected[AdmissionVerdict.POOL_FULL] += 1
            return AdmissionVerdict.POOL_FULL
        self._insert(tx, key)
        self._enforce_caps()
        self.watermark.update(self._fill())
        if key not in self._residents:
            self.evicted -= 1  # bounced, not a resident casualty
            self.rejected[AdmissionVerdict.POOL_FULL] += 1
            return AdmissionVerdict.POOL_FULL
        self.admitted += 1
        return AdmissionVerdict.ACCEPTED

    def _insert(self, tx: Transaction, key: tuple[int, int]) -> None:
        self._residents[key] = tx
        lane = self._lanes.get(tx.fee)
        if lane is None:
            lane = self._lanes[tx.fee] = {}
            insort(self._fees, tx.fee)
        lane[key] = tx
        self._seen.add(key)
        self._bytes += tx.wire_size()

    def _over_caps(self) -> bool:
        return len(self._residents) > self.max_txs or bool(
            self.max_bytes and self._bytes > self.max_bytes
        )

    def _enforce_caps(self) -> None:
        """Evict lowest-priority residents until both caps hold."""
        while self._over_caps():
            key, tx = next(reversed(self._lanes[self._fees[0]].items()))
            self._remove(key, tx)
            self._seen.discard(key)  # an evicted tx may be resubmitted
            self.evicted += 1

    # -- what the chain did --------------------------------------------------

    def purge_committed(self, keys: Collection[tuple[int, int]]) -> None:
        """A committed block carried ``keys``: drop them, remember them.

        Residents with those keys leave the pool (their request is done),
        and every key enters the replay memory, so a copy of the request
        that arrives after the commit is not admitted again.  Every
        resident's key is in the replay memory already (it entered on
        admission and leaves only with an eviction or a crash, which
        take the resident too), so only the others are added.
        """
        if not keys:
            return  # all filler (every open-loop block): nothing a client sent
        residents = self._residents
        remember = self._seen.add
        for key in keys:
            tx = residents.get(key)
            if tx is None:
                remember(key)
            else:
                self._remove(key, tx)
                self.purged += 1
        self.watermark.update(self._fill())

    def lose_memory(self) -> None:
        """Crash-stop: residents and replay memory do not survive a restart.

        The monotone counters do (they describe the run, not the pool),
        and so does the synthetic-id counter: filler ids restarting from
        zero would change every open-loop block after a crash.
        """
        self._residents.clear()
        self._lanes.clear()
        self._fees.clear()
        self._seen = ClientKeySet()
        self._bytes = 0
        self.watermark.update(self._fill())

    # -- proposal ----------------------------------------------------------

    def take_block(self, now: float, exclude: Collection[tuple[int, int]] = ()) -> TxBatch:
        """Drain up to ``block_size`` transactions by priority, packed.

        Both caps apply: at most ``block_size`` transactions and (when
        ``max_block_bytes`` is set) at most that many payload+metadata
        bytes - except that a block always carries at least one queued
        transaction, so an outsized transaction cannot wedge the pool.

        Residents whose key is in ``exclude`` (an uncommitted ancestor of
        the block being built carries them) are passed over: they stay
        resident and keep their place in the drain order, so they cost
        nothing if the ancestor is abandoned and are purged if it commits.

        In open-loop mode the remainder is filled with synthetic
        transactions (the paper's inexhaustible supply), so blocks are
        always full; in closed-loop mode the block may be short, and it is
        empty only on a heartbeat or in a chained pipeline's flush: a
        leader with nothing to order parks its proposal until an admission
        (``repro.protocols.idle``).  Filler is packed straight into the
        column, never built as records.
        """
        batch: list[Transaction] = []
        used = 0
        fees, lanes, residents = self._fees, self._lanes, self._residents
        stop = False
        # Highest lane first; deleting fees[at] leaves every lower index as it is.
        for at in range(len(fees) - 1, -1, -1):
            lane = lanes[fees[at]]
            taken: list[tuple[int, int]] = []
            for key, tx in lane.items():
                if len(batch) >= self.block_size:
                    stop = True
                    break
                if key in exclude:
                    continue  # stays resident, in its place in its lane
                size = tx.wire_size()
                if self.max_block_bytes and batch and used + size > self.max_block_bytes:
                    stop = True  # the byte-capped drain stop: nothing cheaper jumps it
                    break
                batch.append(tx)
                taken.append(key)
                used += size
            for key in taken:  # the lane changes only once its walk is done
                del lane[key]
                del residents[key]
            if not lane:
                del lanes[fees[at]]
                del fees[at]
            if stop:
                break
        self._bytes -= used
        self.drained += len(batch)
        self.watermark.update(self._fill())
        column = TxBatch.of(batch)
        if not self.open_loop:
            return column
        fill = self.block_size - len(batch)
        synth_size = self.payload_bytes + TX_METADATA_BYTES
        if self.max_block_bytes and fill > 0:
            # Filler that fits the byte cap; an empty block still takes one.
            room = (self.max_block_bytes - used) // synth_size
            fill = min(fill, max(room, 0 if batch else 1))
        first, self._next_synth = self._next_synth, self._next_synth + fill
        pack, payload = TX_RECORD.pack, self.payload_bytes
        filler = [pack(SYNTHETIC_CLIENT_ID, i, payload, now, 0) for i in range(first, first + fill)]
        return TxBatch(b"".join([column.packed, *filler]))

    def _remove(self, key: tuple[int, int], tx: Transaction) -> None:
        del self._residents[key]
        lane = self._lanes[tx.fee]
        del lane[key]
        if not lane:
            del self._lanes[tx.fee]
            del self._fees[bisect_left(self._fees, tx.fee)]
        self._bytes -= tx.wire_size()

    # -- introspection -----------------------------------------------------

    def pending(self) -> int:
        """Number of resident client transactions."""
        return len(self._residents)

    def resident_keys(self) -> KeysView[tuple[int, int]]:
        """The keys of the resident client transactions, a live view."""
        return self._residents.keys()

    def _fill(self) -> float:
        fill = len(self._residents) / self.max_txs
        if self.max_bytes:
            fill = max(fill, self._bytes / self.max_bytes)
        return fill

    def _lowest_fee(self) -> int:
        """Fee of the current eviction candidate (0 for an empty pool)."""
        return self._fees[0] if self._fees else 0

    def stats(self) -> dict[str, int | bool]:
        """Monotone counters + current occupancy, for health snapshots."""
        return {
            "pending_txs": len(self._residents),
            "pending_bytes": self._bytes,
            "admitted": self.admitted,
            "drained": self.drained,
            "evicted": self.evicted,
            "purged": self.purged,
            "rejected_rate_limited": self.rejected[AdmissionVerdict.RATE_LIMITED],
            "rejected_pool_full": self.rejected[AdmissionVerdict.POOL_FULL],
            "rejected_duplicate": self.rejected[AdmissionVerdict.DUPLICATE],
            "replay_holes": self._seen.holes(),
            "backpressured": self.watermark.backpressured,
            "backpressure_engagements": self.watermark.engagements,
        }
