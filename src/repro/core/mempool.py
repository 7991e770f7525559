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
replica returns to the submitting client, and the :class:`TxBatch` a
block keeps its transactions in.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import struct
import zlib
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from typing import Any, NamedTuple

from repro.crypto.hashing import Hash, hash_fields
from repro.errors import CodecError

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


#: One transaction's record in a block: the ``Transaction`` wire row
#: without its zero run (``client_id``, ``tx_id``, ``payload_bytes``,
#: ``submitted_at``, ``fee``; 36 bytes).
TX_RECORD = struct.Struct("<qqIdq")
#: Views of one record that unpack only some of its fields.
_KEY = struct.Struct("<qq20x")
_DIGEST_FIELDS = struct.Struct("<qqI8xq")

#: ``tuple.__new__``: a record from its fields in one C call, where the
#: record class's own ``__new__`` runs Python.
_new_record: Callable[..., Any] = tuple.__new__

#: Records per strided unpack.  The structs are cached by count, so a
#: column of any length (a peer's block too) compiles at most this many
#: per view, plus one.
_STRIDE = 64


@lru_cache(maxsize=None)
def _strided(record: str, count: int) -> struct.Struct:
    return struct.Struct("<" + record * count)


def record_field(record: str, packed: bytes) -> list[tuple[int, ...]]:
    """One field of every record in ``packed``, in runs of up to ``_STRIDE``
    records, one ``unpack`` each: ``record`` is the record's format with
    the other fields padding (any fixed-width row's records, not only a
    transaction's)."""
    size = _strided(record, 1).size
    count = len(packed) // size
    tail = count % _STRIDE
    cut = (count - tail) * size
    runs = list(_strided(record, _STRIDE).iter_unpack(memoryview(packed)[:cut]))
    runs.append(_strided(record, tail).unpack_from(packed, cut))
    return runs


class TxBatch:
    """A block's transactions as one immutable column of packed records.

    ``packed`` is the records back to back, in block order and in the
    wire format of the ``Transaction`` row (:data:`TX_RECORD`).  A block
    retained for the life of the chain is then one ``bytes`` the cycle
    collector never walks, not a tracked record per transaction.  The
    records come back as :class:`Transaction` tuples when iterated or
    indexed; :meth:`client_keys` and :meth:`wire_size` read only the
    fields they need.  Equality is the packed bytes', and the hash their
    CRC-32 (the same in every run).

    A chain keeps the columns it has executed stowed (:meth:`stow`): the
    batch then holds the column compressed and every read of ``packed``
    decompresses it.  Its value, length, equality and hash stay the same.
    """

    __slots__ = ("_column", "_count", "_stowed")

    def __init__(self, packed: bytes = b"") -> None:
        count, rest = divmod(len(packed), TX_RECORD.size)
        if rest:
            raise CodecError(f"{len(packed)} bytes are no whole number of records")
        self._column = packed
        self._count = count
        self._stowed = False

    @property
    def packed(self) -> bytes:
        """The records back to back."""
        if self._stowed:
            return zlib.decompress(self._column)
        return self._column

    def stow(self) -> None:
        """Hold the column compressed from now on, if that is smaller.

        Idempotent.  Records of one client's traffic share most of their
        bytes (small ids counting up, zero fees and sizes), so a block of
        them stows in about a quarter of its size.
        """
        if not self._stowed:
            compressed = zlib.compress(self._column, 1)
            if len(compressed) < len(self._column):
                self._column = compressed
                self._stowed = True

    def __eq__(self, other: object) -> bool:
        if type(other) is not TxBatch:
            return NotImplemented
        return self is other or self.packed == other.packed

    def __hash__(self) -> int:
        return zlib.crc32(self.packed)

    def __repr__(self) -> str:
        return f"TxBatch(packed={self.packed!r})"

    @classmethod
    def of(cls, transactions: Iterable[Transaction]) -> TxBatch:
        """The column of ``transactions``, in order.

        A field outside its wire range (a negative payload size, an id
        beyond 64 bits...) raises :class:`~repro.errors.CodecError`: the
        column is the wire format, on the simulator too.
        """
        pack = TX_RECORD.pack
        try:
            return cls(b"".join([pack(*tx) for tx in transactions]))
        except struct.error as exc:
            raise CodecError(f"transaction field out of range: {exc}") from exc

    def __len__(self) -> int:
        return self._count

    def __bytes__(self) -> bytes:
        return self.packed

    def __iter__(self) -> Iterator[Transaction]:
        fields = TX_RECORD.iter_unpack(self.packed)
        return map(_new_record, itertools.repeat(Transaction), fields)

    def __getitem__(self, index: int) -> Transaction:
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("transaction index out of range")
        fields = TX_RECORD.unpack_from(self.packed, index * TX_RECORD.size)
        record: Transaction = _new_record(Transaction, fields)
        return record

    def client_keys(self) -> tuple[tuple[int, int], ...]:
        """``(client_id, tx_id)`` of every record but the filler, in order.

        The client ids come first, in one call: a block of filler only (an
        open-loop block) or of no filler (a closed-loop one) is then
        answered without a test per record.
        """
        packed = self.packed
        filler = sum(ids.count(SYNTHETIC_CLIENT_ID) for ids in record_field("q28x", packed))
        if not filler:
            return tuple(_KEY.iter_unpack(packed))
        if filler == len(self):
            return ()
        return tuple(key for key in _KEY.iter_unpack(packed) if key[0] != SYNTHETIC_CLIENT_ID)

    def payload_sizes(self) -> list[tuple[int, ...]]:
        """``payload_bytes`` of every record, in order, in runs of records."""
        return record_field("16xI16x", self.packed)

    def wire_size(self) -> int:
        """Bytes the transactions occupy inside a block (payloads + metadata)."""
        return sum(map(sum, self.payload_sizes())) + TX_METADATA_BYTES * len(self)


#: Memoized payload digests, keyed by a column's fingerprint
#: (:func:`_memo_key`).  A block is re-digested whenever it is
#: reconstructed from the wire or re-hashed; the digest is a pure function
#: of the bytes.  A key is not the bytes themselves, so the memo pins no
#: column: the chain stows the columns it has executed.
_PAYLOAD_DIGEST_CACHE: dict[bytes, Hash] = {}
_DIGEST_CACHE_MAX = 4096


def _memo_key(packed: bytes) -> bytes:
    """A column's BLAKE2b fingerprint: one C pass, where the digest
    encodes every record."""
    return hashlib.blake2b(packed).digest()


def payload_digest(transactions: TxBatch) -> Hash:
    """Digest binding a block to its transaction list: the canonical hash
    of ``(client_id, tx_id, payload_bytes, fee)`` per transaction."""
    packed = transactions.packed
    key = _memo_key(packed)
    digest = _PAYLOAD_DIGEST_CACHE.get(key)
    if digest is None:
        if len(_PAYLOAD_DIGEST_CACHE) >= _DIGEST_CACHE_MAX:
            # Evict the oldest half (dicts preserve insertion order)
            # rather than clearing wholesale: recent columns are the ones
            # a live chain keeps re-hashing, and dropping them too costs
            # a re-digest per block on the hot path.
            for stale in list(
                itertools.islice(_PAYLOAD_DIGEST_CACHE, _DIGEST_CACHE_MAX // 2)
            ):
                del _PAYLOAD_DIGEST_CACHE[stale]
        digest = hash_fields(tuple(_DIGEST_FIELDS.iter_unpack(packed)))
        _PAYLOAD_DIGEST_CACHE[key] = digest
    return digest
