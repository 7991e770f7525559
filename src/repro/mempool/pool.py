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
reverse for eviction, via two lazy-deletion heaps over one entry index:
heap entries are never removed in place, they are skipped at pop time
when their sequence number no longer matches the index.  All paper
workloads use ``fee=0``, which degenerates to FIFO - so the refactor
leaves every seed benchmark figure bit-identical.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Collection

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

#: Dead eviction-heap entries tolerated beyond the live ones before a rebuild.
_HEAP_SLACK = 1024


class _Entry:
    """One resident transaction; ``seq`` doubles as the liveness token."""

    __slots__ = ("tx", "seq")

    def __init__(self, tx: Transaction, seq: int) -> None:
        self.tx = tx
        self.seq = seq


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
        self._seq = itertools.count()
        #: Residents by (client_id, tx_id); the single source of truth.
        self._entries: dict[tuple[int, int], _Entry] = {}
        #: Drain order: highest fee first, oldest first within a fee.
        self._drain_heap: list[tuple[int, int, tuple[int, int]]] = []
        #: Eviction order: lowest fee first, *newest* first within a fee,
        #: so an overload sheds the latecomer, never a queued elder.
        self._evict_heap: list[tuple[int, int, tuple[int, int]]] = []
        #: Replay memory: keys admitted and not since evicted, plus keys
        #: seen committed (residents, already-proposed and committed
        #: transactions all reject as DUPLICATE; an evicted transaction
        #: may be resubmitted).  Exact for the life of the pool; costs one
        #: entry per client plus one per evicted resident not resubmitted.
        self._seen = ClientKeySet()
        self._count = 0
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
        bounced = self._over_caps() and key in self._enforce_caps()
        self.watermark.update(self._fill())
        if bounced:
            self.evicted -= 1  # bounced, not a resident casualty
            self.rejected[AdmissionVerdict.POOL_FULL] += 1
            return AdmissionVerdict.POOL_FULL
        self.admitted += 1
        return AdmissionVerdict.ACCEPTED

    def add(self, tx: Transaction) -> None:
        """Legacy unconditioned enqueue (idempotent per key).

        Internal submitters (``ReplicatedApp``, tests) bypass rate
        limiting and backpressure; the hard caps still hold.
        """
        key = (tx.client_id, tx.tx_id)
        if key in self._seen:
            return
        self._insert(tx, key)
        self._enforce_caps()
        self.watermark.update(self._fill())

    def _insert(self, tx: Transaction, key: tuple[int, int]) -> None:
        seq = next(self._seq)
        self._entries[key] = _Entry(tx, seq)
        heapq.heappush(self._drain_heap, (-tx.fee, seq, key))
        heapq.heappush(self._evict_heap, (tx.fee, -seq, key))
        if len(self._evict_heap) > 2 * self._count + _HEAP_SLACK:
            # Drained and purged residents leave dead entries behind that
            # only an eviction would pop; a pool that never fills sheds
            # them here instead of keeping one per transaction ever seen.
            self._evict_heap = [
                (entry.tx.fee, -entry.seq, resident)
                for resident, entry in self._entries.items()
            ]
            heapq.heapify(self._evict_heap)
        self._seen.add(key)
        self._count += 1
        self._bytes += tx.wire_size()

    def _over_caps(self) -> bool:
        return self._count > self.max_txs or bool(self.max_bytes and self._bytes > self.max_bytes)

    def _enforce_caps(self) -> set[tuple[int, int]]:
        """Evict lowest-priority residents until both caps hold."""
        evicted: set[tuple[int, int]] = set()
        while self._over_caps():
            victim = self._pop_extreme(self._evict_heap)
            if victim is None:  # pragma: no cover - caps imply residents
                break
            key, entry = victim
            self._remove(key, entry)
            self._seen.discard(key)  # an evicted tx may be resubmitted
            self.evicted += 1
            evicted.add(key)
        return evicted

    # -- what the chain did --------------------------------------------------

    def purge_committed(self, keys: Collection[tuple[int, int]]) -> None:
        """A committed block carried ``keys``: drop them, remember them.

        Residents with those keys leave the pool (their request is done),
        and every key enters the replay memory, so a copy of the request
        that arrives after the commit is not admitted again.
        """
        if not keys:
            return  # all filler (every open-loop block): nothing a client sent
        entries = self._entries
        remember = self._seen.add
        for key in keys:
            entry = entries.get(key)
            if entry is not None:
                self._remove(key, entry)
                self.purged += 1
            remember(key)
        self.watermark.update(self._fill())

    def lose_memory(self) -> None:
        """Crash-stop: residents and replay memory do not survive a restart.

        The monotone counters do (they describe the run, not the pool),
        and so does the synthetic-id counter: filler ids restarting from
        zero would change every open-loop block after a crash.
        """
        self._entries.clear()
        self._drain_heap.clear()
        self._evict_heap.clear()
        self._seen = ClientKeySet()
        self._count = 0
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
        passed_over: list[tuple[int, int, tuple[int, int]]] = []
        while self._count > len(passed_over) and len(batch) < self.block_size:
            item = self._pop_extreme(self._drain_heap)
            if item is None:
                break
            key, entry = item
            if key in exclude:
                passed_over.append((-entry.tx.fee, entry.seq, key))
                continue
            size = entry.tx.wire_size()
            if self.max_block_bytes and batch and used + size > self.max_block_bytes:
                # The byte-capped drain stop: back it goes, nothing cheaper jumps it.
                passed_over.append((-entry.tx.fee, entry.seq, key))
                break
            self._remove(key, entry)
            batch.append(entry.tx)
            used += size
            self.drained += 1
        for heap_item in passed_over:
            heapq.heappush(self._drain_heap, heap_item)
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

    def _pop_extreme(
        self, heap: list[tuple[int, int, tuple[int, int]]]
    ) -> tuple[tuple[int, int], _Entry] | None:
        """Pop the live extreme of a lazy-deletion heap."""
        while heap:
            item = heapq.heappop(heap)
            entry = self._entries.get(item[2])
            if entry is None or entry.seq != abs(item[1]):
                continue  # stale: evicted, drained or purged since pushed
            return item[2], entry
        return None

    def _remove(self, key: tuple[int, int], entry: _Entry) -> None:
        del self._entries[key]
        self._count -= 1
        self._bytes -= entry.tx.wire_size()

    # -- introspection -----------------------------------------------------

    def pending(self) -> int:
        """Number of resident client transactions."""
        return self._count

    def pending_bytes(self) -> int:
        """Bytes (payload + metadata) occupied by resident transactions."""
        return self._bytes

    def _fill(self) -> float:
        fill = self._count / self.max_txs
        if self.max_bytes:
            fill = max(fill, self._bytes / self.max_bytes)
        return fill

    def _lowest_fee(self) -> int:
        """Fee of the current eviction candidate (0 for an empty pool)."""
        while self._evict_heap:
            fee, neg_seq, key = self._evict_heap[0]
            entry = self._entries.get(key)
            if entry is None or entry.seq != -neg_seq:
                heapq.heappop(self._evict_heap)
                continue
            return fee
        return 0

    def stats(self) -> dict[str, int | bool]:
        """Monotone counters + current occupancy, for health snapshots."""
        return {
            "pending_txs": self._count,
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
