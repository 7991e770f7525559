"""An exact, compact set of client keys ``(client_id, tx_id)``.

Clients number their requests sequentially, so nearly everything a
replica ever has to remember about one client - the ids its executed
chain applied, the ids its pool has seen - is "every id below a
watermark".  :class:`ClientKeySet` stores exactly that, plus the
exceptions on either side, and therefore stays O(clients + exceptions)
where a plain ``set`` of tuples costs ~140 bytes per transaction
remembered.  The exceptions are not free on every path: a pool that
evicts residents (overload, spam) keeps one hole per evicted id for as
long as that id is not resubmitted, unless it was the client's newest.

Both users need the same three operations and must agree on them: the
ledger's exactly-once record (:class:`repro.core.executor.Ledger`) and
the pool's replay memory (:class:`repro.mempool.pool.PriorityMempool`).
"""

from __future__ import annotations

#: ``(client_id, tx_id)``.
Key = tuple[int, int]


class ClientKeySet:
    """A set of client keys, kept per client as watermark and exceptions.

    Per client: every id in ``[0, watermark)`` except the discarded ones
    (``_holes``), plus the members outside that range (``_ahead``: added
    out of order, or negative).  With in-order ids and nothing discarded
    both exception sets stay empty.  Discarding a client's newest id
    steps its watermark back; any other discard below the watermark adds
    a hole that only re-adding that id (or the watermark stepping back
    over it) removes, so for a user that discards the record is
    O(clients + discards), not O(clients).
    """

    def __init__(self) -> None:
        self._next: dict[int, int] = {}
        self._ahead: dict[int, set[int]] = {}
        self._holes: dict[int, set[int]] = {}

    def add(self, key: Key) -> bool:
        """Insert ``key``; ``False`` when it was already a member."""
        client_id, tx_id = key
        watermark = self._next.get(client_id, 0)
        if tx_id == watermark:
            watermark += 1
            ahead = self._ahead.get(client_id)
            if ahead:
                while watermark in ahead:
                    ahead.remove(watermark)
                    watermark += 1
                if not ahead:
                    del self._ahead[client_id]
            self._next[client_id] = watermark
            return True
        if 0 <= tx_id < watermark:
            holes = self._holes.get(client_id)
            if not holes or tx_id not in holes:
                return False
            holes.remove(tx_id)
            if not holes:
                del self._holes[client_id]
            return True
        ahead = self._ahead.setdefault(client_id, set())
        if tx_id in ahead:
            return False
        ahead.add(tx_id)
        return True

    def discard(self, key: Key) -> None:
        """Remove ``key`` if it is a member."""
        client_id, tx_id = key
        watermark = self._next.get(client_id, 0)
        if 0 <= tx_id < watermark - 1:
            # Ids above it are members: the watermark stays (they would
            # all have to be held one by one until the gap closed again).
            self._holes.setdefault(client_id, set()).add(tx_id)
        elif 0 <= tx_id < watermark:
            # The newest id - a pool's transaction bounced on arrival -
            # steps the watermark back, over any holes now at its edge.
            watermark -= 1
            holes = self._holes.get(client_id)
            if holes:
                while watermark - 1 in holes:
                    watermark -= 1
                    holes.remove(watermark)
                if not holes:
                    del self._holes[client_id]
            self._next[client_id] = watermark
        else:
            ahead = self._ahead.get(client_id)
            if ahead:
                ahead.discard(tx_id)
                if not ahead:
                    del self._ahead[client_id]

    def holes(self) -> int:
        """Ids discarded below their client's watermark and not re-added."""
        return sum(len(holes) for holes in self._holes.values())

    def __contains__(self, key: Key) -> bool:
        client_id, tx_id = key
        if 0 <= tx_id < self._next.get(client_id, 0):
            holes = self._holes.get(client_id)
            return not holes or tx_id not in holes
        return tx_id in self._ahead.get(client_id, ())
