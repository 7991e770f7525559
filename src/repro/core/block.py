"""Blocks and the extension relation (paper Section 5).

A block stores the hash value of the block it extends, which is what makes
the relation ``b > h`` ("b is a direct extension of the block with hash
h") checkable.  Chained blocks additionally store their justification
certificate, the paper's ``b.just``, as ``justify`` (Section 7.1).

``create_leaf`` is the paper's block constructor for the basic protocols;
``create_chain`` is the chained variant, which conceptually fills view
gaps with blank blocks - here gaps are represented by non-consecutive
views rather than materialized blank blocks, and ``is_blank`` marks
explicitly-created filler blocks when a caller wants them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.crypto.hashing import HASH_SIZE, Hash, hash_block_fields, hash_fields
from repro.core.mempool import TxBatch, payload_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.certificate import Accumulator, QuorumCert

#: Fixed per-block header bytes: parent hash + view + tx count + framing.
BLOCK_HEADER_BYTES = HASH_SIZE + 4 + 4 + 8

#: Digest of the (empty) genesis payload.
GENESIS_PAYLOAD_DIGEST: Hash = hash_fields(("genesis",))


@dataclass(frozen=True, slots=True)
class Block:
    """A proposal: transactions plus a pointer to the extended block.

    ``transactions`` is one packed column (:class:`TxBatch`); handed any
    other iterable of transactions, the constructor packs it.
    """

    parent_hash: Hash
    view: int
    transactions: TxBatch
    justify: "QuorumCert | Accumulator | None" = None
    is_genesis: bool = False
    is_blank: bool = False
    created_at: float = 0.0
    _hash: Hash = field(default=b"", repr=False, compare=False)
    _wire_size: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.transactions) is not TxBatch:
            object.__setattr__(self, "transactions", TxBatch.of(self.transactions))
        just_digest = self.justify.digest() if self.justify is not None else b""
        digest = hash_block_fields(
            self.parent_hash,
            self.view,
            payload_digest(self.transactions),
            extra=(self.is_genesis, self.is_blank, just_digest),
        )
        object.__setattr__(self, "_hash", digest)

    @property
    def hash(self) -> Hash:
        """SHA-256 identity of the block (paper's ``H(b)``)."""
        return self._hash

    @property
    def parent(self) -> Hash:
        """Paper notation ``b.parent``: hash of the extended block."""
        return self.parent_hash

    def extends(self, parent_hash: Hash) -> bool:
        """The direct-extension relation ``b > h``."""
        return self.parent_hash == parent_hash

    def num_transactions(self) -> int:
        return len(self.transactions)

    def client_keys(self) -> tuple[tuple[int, int], ...]:
        """``(client_id, tx_id)`` of every client transaction carried, in order.

        Synthetic filler is left out.  Read off the column on every call
        (the key fields only, :meth:`TxBatch.client_keys`): the keys are
        wanted until the block executes, and a memo on the block would keep
        them for as long as the chain keeps the block.
        """
        return self.transactions.client_keys()

    def wire_size(self) -> int:
        """Bytes of this block on the wire (header + txs + justification).

        Computed once and cached: the network asks for a block's size on
        every send of every proposal carrying it, and summing 400
        per-transaction sizes each time dominated the send path.  Blocks
        are immutable, so the size can never change.
        """
        size = self._wire_size
        if size < 0:
            size = BLOCK_HEADER_BYTES + self.transactions.wire_size()
            if self.justify is not None:
                size += self.justify.wire_size()
            object.__setattr__(self, "_wire_size", size)
        return size


def genesis_block() -> Block:
    """The well-known genesis block ``G``; identical at all replicas."""
    return Block(
        parent_hash=b"\x00" * HASH_SIZE,
        view=0,
        transactions=TxBatch(),
        justify=None,
        is_genesis=True,
    )


def create_leaf(
    parent_hash: Hash,
    view: int,
    transactions: TxBatch,
    created_at: float = 0.0,
) -> Block:
    """Paper's ``createLeaf``: a new block extending ``parent_hash``."""
    return Block(
        parent_hash=parent_hash,
        view=view,
        transactions=transactions,
        created_at=created_at,
    )


def create_chain(
    justify: "QuorumCert | Accumulator",
    view: int,
    transactions: TxBatch,
    created_at: float = 0.0,
) -> Block:
    """Paper's ``createChain``: a chained block justified by a certificate.

    The new block directly extends the block certified by ``justify``
    (``b.parent == justify.hash``).  When ``view > justify.view + 1`` the
    intermediate views conceptually hold blank blocks (Fig 4); we encode a
    gap as the non-consecutive view numbers rather than materializing the
    blanks, which is behaviourally identical for the execution rule (a
    block only executes from a chain of *consecutive*-view blocks).
    """
    return Block(
        parent_hash=justify.hash,
        view=view,
        transactions=transactions,
        justify=justify,
        created_at=created_at,
    )
