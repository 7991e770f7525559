"""Block store with ancestry queries.

Implements the extension relation of Section 5 as its reflexive-transitive
closure (``>*``, :meth:`BlockStore.is_ancestor`): two blocks conflict when
neither extends the other.  Every replica keeps its own store of blocks it
has seen; ancestry walks follow parent hashes, so they only ever traverse
blocks the replica actually holds.
"""

from __future__ import annotations

from collections import defaultdict

from repro.crypto.hashing import Hash
from repro.errors import MissingBlockError, ProtocolError
from repro.core.block import Block, genesis_block


class BlockStore:
    """Content-addressed block storage for a single replica."""

    def __init__(self) -> None:
        self._by_hash: dict[Hash, Block] = {}
        self._by_view: dict[int, list[Block]] = defaultdict(list)
        self.genesis = genesis_block()
        self.add(self.genesis)

    def add(self, block: Block) -> None:
        """Insert a block (idempotent by hash)."""
        if block.hash in self._by_hash:
            return
        self._by_hash[block.hash] = block
        self._by_view[block.view].append(block)

    def get(self, block_hash: Hash) -> Block | None:
        return self._by_hash.get(block_hash)

    def __contains__(self, block_hash: Hash) -> bool:
        return block_hash in self._by_hash

    def __len__(self) -> int:
        return len(self._by_hash)

    def blocks_at_view(self, view: int) -> list[Block]:
        """All known blocks proposed at ``view`` (>1 implies equivocation)."""
        return list(self._by_view.get(view, ()))

    # -- ancestry ------------------------------------------------------------

    def is_ancestor(self, anc_hash: Hash, desc_hash: Hash) -> bool:
        """Reflexive-transitive extension: ``desc >* anc``."""
        cursor: Hash | None = desc_hash
        while cursor is not None:
            if cursor == anc_hash:
                return True
            block = self._by_hash.get(cursor)
            if block is None or block.is_genesis:
                return False
            cursor = block.parent_hash
        return False

    def path_between(self, anc_hash: Hash, desc_hash: Hash) -> list[Block]:
        """Blocks strictly after ``anc`` up to and including ``desc``.

        Raises :class:`ProtocolError` if ``desc`` does not descend from
        ``anc`` through blocks in this store.
        """
        path: list[Block] = []
        cursor: Hash | None = desc_hash
        while cursor is not None and cursor != anc_hash:
            block = self._by_hash.get(cursor)
            if block is None:
                raise MissingBlockError(
                    f"block {cursor.hex()[:12]} is not in the store"
                )
            path.append(block)
            if block.is_genesis:
                raise ProtocolError(
                    f"{desc_hash.hex()[:12]} does not descend from {anc_hash.hex()[:12]}"
                )
            cursor = block.parent_hash
        if cursor != anc_hash:
            raise ProtocolError("ancestor not reached")
        path.reverse()
        return path
