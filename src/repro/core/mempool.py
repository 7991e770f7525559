"""Client transactions and admission verdicts.

The paper works "at the block level" and leaves transaction internals
abstract (Section 5); the only transaction properties the evaluation
depends on are counts and byte sizes: each transaction carries a payload
plus 40 B of metadata (client id, transaction id, previous-block hash -
Section 8, "Deployment settings").

The replica-side pool lives in :mod:`repro.mempool` (bounded priority
ordering, per-sender rate limiting, watermark backpressure); this module
keeps the core data model the wire codec and block hashing depend on:
the :class:`Transaction` record and the :class:`AdmissionVerdict` a
replica returns to the submitting client.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple

from repro.crypto.hashing import Hash, hash_fields

#: Metadata bytes per transaction (2 x 4 B ids + 32 B previous-block hash).
TX_METADATA_BYTES = 40

#: Client id of the pool's synthetic filler (the paper's inexhaustible
#: open-loop supply).  Filler is no client's request: every leader numbers
#: its own from zero, so the exactly-once machinery leaves it alone.
SYNTHETIC_CLIENT_ID = -1


class AdmissionVerdict(enum.Enum):
    """Outcome of submitting a transaction to a replica's mempool.

    Returned to clients inside :class:`repro.core.messages.ClientReply`:
    an ``ACCEPTED`` transaction will (absent faults) eventually execute
    and produce a second, execution-time reply; the other verdicts are
    immediate NACKs telling the client why admission failed.
    """

    ACCEPTED = "accepted"
    RATE_LIMITED = "rate-limited"
    POOL_FULL = "pool-full"
    DUPLICATE = "duplicate"


class Transaction(NamedTuple):
    """A client transaction; payload content is abstracted to its size.

    ``fee`` is the client-declared priority: the pool drains higher fees
    first and evicts lower fees first, and a fee of zero (the default,
    and the only value the paper's workloads use) degenerates to FIFO.

    An immutable tuple record, not a dataclass: it is built once per
    transaction per hop, and the codec builds a decoded one with a single
    ``tuple.__new__`` (see ``docs/architecture.md``, "The wire path").
    """

    client_id: int
    tx_id: int
    payload_bytes: int
    submitted_at: float = 0.0
    fee: int = 0

    def wire_size(self) -> int:
        """Bytes this transaction occupies inside a block."""
        return self.payload_bytes + TX_METADATA_BYTES

    @property
    def key(self) -> tuple[int, int]:
        """``(client_id, tx_id)``: what makes two submissions the same request."""
        return (self.client_id, self.tx_id)

    def digest_fields(self) -> tuple[int, int, int, int]:
        return (self.client_id, self.tx_id, self.payload_bytes, self.fee)


#: Memoized payload digests keyed by the (immutable) transaction tuple.
#: The same tuple is re-digested whenever a block is reconstructed from
#: the wire or re-hashed; the digest is a pure function of its content.
_PAYLOAD_DIGEST_CACHE: dict[tuple[Transaction, ...], Hash] = {}
_DIGEST_CACHE_MAX = 4096


def payload_digest(transactions: tuple[Transaction, ...]) -> Hash:
    """Digest binding a block to its transaction list."""
    digest = _PAYLOAD_DIGEST_CACHE.get(transactions)
    if digest is None:
        if len(_PAYLOAD_DIGEST_CACHE) >= _DIGEST_CACHE_MAX:
            # Evict the oldest half (dicts preserve insertion order)
            # rather than clearing wholesale: recent tuples are the ones
            # a live chain keeps re-hashing, and dropping them too costs
            # a re-digest per block on the hot path.
            for stale in list(
                itertools.islice(_PAYLOAD_DIGEST_CACHE, _DIGEST_CACHE_MAX // 2)
            ):
                del _PAYLOAD_DIGEST_CACHE[stale]
        digest = hash_fields(tuple(tx.digest_fields() for tx in transactions))
        _PAYLOAD_DIGEST_CACHE[transactions] = digest
    return digest
