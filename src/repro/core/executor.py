"""Execution ledger and global safety oracle.

Each replica owns a :class:`Ledger` that executes decided blocks in chain
order (executing a block first executes any not-yet-executed ancestors,
which is how chained protocols "execute b1 and previous blocks", Fig 5a).

The :class:`SafetyOracle` is shared by all replicas of one simulated
system.  It observes every execution and checks the consensus safety
property - all correct replicas execute the same blocks in the same order.
In *recording* mode it collects violations (used by the Section 4
counter-example, which deliberately breaks a weakened protocol); in
*strict* mode it raises :class:`~repro.errors.SafetyViolation` immediately,
which is how the test suite guards every Damysus/HotStuff run.

The oracle is the only observer the ledger calls: strict mode must raise
at the violating execution itself, and a checkpoint install is no
execution a host would hear of.  Hosts learn of executions from the
replica's ``Commit`` effects (the simulator's monitor records one per
``Commit``), so the ledger keeps no clock and no metrics sink.

Execution is also where a client transaction takes effect *exactly once*:
clients broadcast each request, so a request can reach a second block (a
leader that was down while it committed, a Byzantine proposer).  The
ledger keeps the keys the executed prefix applied (a
:class:`~repro.core.keyset.ClientKeySet`) and skips a transaction whose
key an earlier position carried.  That record is a pure function of the
executed prefix, so every replica skips the same ones; the oracle checks
it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Hash, hash_fields
from repro.errors import ProtocolError, SafetyViolation
from repro.core.block import Block
from repro.core.chain import BlockStore
from repro.core.keyset import ClientKeySet, Key
from repro.core.mempool import SYNTHETIC_CLIENT_ID, Transaction, TxBatch


def fold_state_root(prev_root: Hash, block_hash: Hash) -> Hash:
    """Advance the rolling executed-state root by one block.

    The root is a running fold over the executed block hashes, so two
    replicas hold the same root at height ``h`` iff they executed the
    same blocks in the same order - across runtimes too, since block
    hashes are runtime-independent.  Checkpoints certify this root.
    """
    return hash_fields(("exec-root", prev_root, block_hash))


@dataclass
class Violation:
    """One observed disagreement between replicas' executed sequences."""

    index: int
    replica: int
    block_hash: Hash
    canonical_hash: Hash

    def describe(self) -> str:
        return (
            f"replica {self.replica} executed {self.block_hash.hex()[:12]} at "
            f"index {self.index}, but {self.canonical_hash.hex()[:12]} was "
            "already executed there"
        )


@dataclass
class ApplyViolation:
    """A client key applied twice, or differently by two replicas."""

    index: int
    replica: int
    key: Key | None
    first_index: int | None = None

    def describe(self) -> str:
        if self.key is None:
            return (
                f"replica {self.replica} applied other client keys at index "
                f"{self.index} than a replica that executed the same prefix"
            )
        return (
            f"replica {self.replica} applied client key {self.key} at index "
            f"{self.index}, but index {self.first_index} already applied it"
        )


class SafetyOracle:
    """Cross-replica agreement checker.

    Beyond "same blocks, same order" it checks exactly-once application:
    along the canonical chain no client key is applied at two positions,
    and replicas that executed a position from genesis applied the same
    keys there.  (A replica that installed a checkpoint starts with a
    partial record and may apply - reply to - a key the prefix it never
    replayed already carried; its chain is still checked hash by hash.)
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self._canonical: list[Hash] = []
        self.sequences: dict[int, list[Hash]] = {}
        self._offsets: dict[int, int] = {}
        #: Executions observed beyond the canonical frontier (a replica
        #: that fast-forwarded via checkpoint runs ahead of everything
        #: recorded so far).  They are cross-checked against each other
        #: immediately and spliced into the canonical chain as the
        #: frontier catches up, so strict-mode detection stays live for
        #: checkpointed replicas instead of waiting for a post-run sweep.
        self._ahead: dict[int, Hash] = {}
        #: Client keys applied per position, as the first from-genesis
        #: replica to execute it reported them, and where each key landed.
        self._applied: dict[int, tuple[Key, ...]] = {}
        self._applied_at: dict[Key, int] = {}
        self.violations: list[Violation | ApplyViolation] = []

    def record(self, replica: int, block_hash: Hash, applied: tuple[Key, ...] = ()) -> None:
        """Append ``block_hash`` to ``replica``'s executed sequence.

        ``applied`` are the client keys the execution took effect for.
        """
        seq = self.sequences.setdefault(replica, [])
        index = self._offsets.get(replica, 0) + len(seq)
        seq.append(block_hash)
        self._observe(replica, index, block_hash)
        if replica not in self._offsets:
            self._observe_applied(replica, index, applied)

    def _observe_applied(self, replica: int, index: int, applied: tuple[Key, ...]) -> None:
        known = self._applied.get(index)
        if known is None:
            self._applied[index] = applied
            for key in applied:
                first = self._applied_at.get(key)
                if first is None:
                    self._applied_at[key] = index
                else:
                    self._flag(ApplyViolation(index, replica, key, first))
        elif known is not applied and known != applied:
            self._flag(ApplyViolation(index, replica, None))

    def _observe(self, replica: int, index: int, block_hash: Hash) -> None:
        """Cross-check one executed position against everything seen."""
        if index < len(self._canonical):
            if self._canonical[index] != block_hash:
                self._flag(Violation(index, replica, block_hash, self._canonical[index]))
            return
        if index > len(self._canonical):
            held = self._ahead.get(index)
            if held is None:
                self._ahead[index] = block_hash
            elif held != block_hash:
                self._flag(Violation(index, replica, block_hash, held))
            return
        # index is exactly the frontier: a buffered ahead-record for this
        # position was observed first, so it is the canonical claim.
        held = self._ahead.pop(index, None)
        if held is not None and held != block_hash:
            self._canonical.append(held)
            self._flag(Violation(index, replica, block_hash, held))
        else:
            self._canonical.append(block_hash)
        while (buffered := self._ahead.pop(len(self._canonical), None)) is not None:
            self._canonical.append(buffered)

    def _flag(self, violation: Violation | ApplyViolation) -> None:
        self.violations.append(violation)
        if self.strict:
            raise SafetyViolation(violation.describe())

    def install_checkpoint(self, replica: int, height: int, block_hash: Hash) -> None:
        """``replica`` fast-forwarded to ``height`` via a certified checkpoint.

        The replica's subsequent executions are indexed from ``height``;
        the checkpointed block itself is cross-checked against the
        canonical chain (or buffered for the position, when the chain has
        not reached it yet).
        """
        self._offsets[replica] = height
        self.sequences[replica] = []
        index = height - 1
        if index < 0:
            return
        if index < len(self._canonical):
            if self._canonical[index] != block_hash:
                self._flag(Violation(index, replica, block_hash, self._canonical[index]))
            return
        held = self._ahead.get(index)
        if held is None:
            self._ahead[index] = block_hash
        elif held != block_hash:
            self._flag(Violation(index, replica, block_hash, held))

    def offset_of(self, replica: int) -> int:
        """Canonical index of ``replica``'s first recorded execution."""
        return self._offsets.get(replica, 0)

    @property
    def safe(self) -> bool:
        return not self.violations

    def canonical_chain(self) -> list[Hash]:
        """The longest executed prefix observed so far."""
        return list(self._canonical)

    def monotone_prefixes_ok(self) -> bool:
        """Every replica's executed sequence is a slice of the canonical chain.

        A replica that installed a certified checkpoint skipped the prefix
        below it; its recorded sequence must then match the canonical chain
        starting at its checkpoint offset (offset 0 without state transfer,
        which degenerates to the plain prefix check).
        """
        for replica, seq in self.sequences.items():
            offset = self.offset_of(replica)
            if seq != self._canonical[offset : offset + len(seq)]:
                return False
        return True


class Ledger:
    """Per-replica executed-block sequence."""

    def __init__(
        self,
        replica: int,
        store: BlockStore,
        oracle: SafetyOracle | None = None,
    ) -> None:
        self.replica = replica
        self.store = store
        self.oracle = oracle
        self.executed: list[Block] = []
        self._executed_hashes: set[Hash] = set()
        self.last_executed_hash: Hash = store.genesis.hash
        self.last_executed_view = 0
        #: Exactly-once: the client keys this chain has applied, how many
        #: re-carried transactions were skipped, and - for the rare block
        #: that re-carried some - the transactions that did take effect.
        self.applied = ClientKeySet()
        self.filtered = 0
        self._partly_applied: dict[Hash, TxBatch] = {}
        # Checkpoint support: executions below ``base_height`` were either
        # garbage-collected (compaction) or never replayed locally (state
        # transfer); ``state_root`` is the rolling fold over every block
        # this chain has executed, including the pruned prefix.
        self.base_height = 0
        self.state_root: Hash = store.genesis.hash
        #: State root at ``base_height`` - the fold over the pruned (or
        #: transferred) prefix.  Lets :meth:`state_root_at` recompute
        #: intermediate roots for any still-retained height.
        self.base_state_root: Hash = store.genesis.hash

    def is_executed(self, block_hash: Hash) -> bool:
        return block_hash in self._executed_hashes

    def execute(self, block: Block) -> list[Block]:
        """Execute ``block`` and any not-yet-executed ancestors, in order.

        Returns the blocks newly executed.  Raises
        :class:`~repro.errors.ProtocolError` if ``block`` does not descend
        from the last executed block - a replica-local fork, which correct
        protocol code never produces.
        """
        if self.is_executed(block.hash):
            return []
        path = self.store.path_between(self.last_executed_hash, block.hash)
        newly: list[Block] = []
        for ancestor in path:
            self._execute_one(ancestor)
            newly.append(ancestor)
        return newly

    def _execute_one(self, block: Block) -> None:
        if block.parent_hash != self.last_executed_hash:
            raise ProtocolError("execution out of chain order")
        if self.executed:
            # Past its own execution a column is read only to serve a peer
            # that catches up; the chain keeps it stowed.
            self.executed[-1].transactions.stow()
        self.executed.append(block)
        self._executed_hashes.add(block.hash)
        self.last_executed_hash = block.hash
        self.last_executed_view = block.view
        self.state_root = fold_state_root(self.state_root, block.hash)
        applied_keys = self._apply(block)
        if self.oracle is not None:
            self.oracle.record(self.replica, block.hash, applied_keys)

    def _apply(self, block: Block) -> tuple[Key, ...]:
        """Mark ``block``'s client keys applied; returns those that were new."""
        keys = block.client_keys()
        if not keys:
            return keys
        add = self.applied.add
        fresh = tuple(key for key in keys if add(key))
        if len(fresh) == len(keys):
            return keys
        self.filtered += len(keys) - len(fresh)
        took_effect: list[Transaction] = []
        pending = set(fresh)
        for tx in block.transactions:
            if tx.client_id == SYNTHETIC_CLIENT_ID:
                took_effect.append(tx)
            elif tx.key in pending:
                pending.remove(tx.key)
                took_effect.append(tx)
        self._partly_applied[block.hash] = TxBatch.of(took_effect)
        return fresh

    def applied_transactions(self, block: Block) -> TxBatch:
        """The transactions of an executed ``block`` that took effect.

        All of them, unless the block re-carried a client key an earlier
        position (or an earlier slot of the same block) had applied.
        """
        return self._partly_applied.get(block.hash, block.transactions)

    def height(self) -> int:
        return self.base_height + len(self.executed)

    def apply_synced(self, block: Block) -> None:
        """Execute one state-transfer block delivered by a peer.

        Unlike :meth:`execute`, no stored path to the block is required -
        catch-up suffixes chain directly from the installed checkpoint
        block, which the local store may have never seen.
        """
        if self.is_executed(block.hash):
            return
        self._execute_one(block)

    def install_checkpoint(
        self, height: int, block_hash: Hash, state_root: Hash, view: int
    ) -> None:
        """Fast-forward this ledger to a certified checkpoint.

        Only moves forward: installing at or below the current height is
        a protocol error (stale checkpoints are refused upstream by the
        TEE-signature check; this guards replica-local misuse).

        The applied-key record is *not* transferred: it stays what this
        replica executed itself, so a key the skipped prefix carried may
        be applied (answered) here once more.  The chain cannot differ
        for it - the state root folds block hashes, not replies.
        """
        if height <= self.height():
            raise ProtocolError(
                f"install_checkpoint: height {height} not beyond local {self.height()}"
            )
        self.executed.clear()
        self._executed_hashes.add(block_hash)
        self.base_height = height
        self.last_executed_hash = block_hash
        self.last_executed_view = view
        self.state_root = state_root
        self.base_state_root = state_root
        if self.oracle is not None:
            self.oracle.install_checkpoint(self.replica, height, block_hash)

    def executed_since(self, height: int) -> list[Block] | None:
        """Blocks executed after chain ``height``, oldest first.

        Returns ``None`` when the prefix below ``height`` was compacted
        away - the caller must hand out a checkpoint instead.
        """
        start = height - self.base_height
        if start < 0:
            return None
        return self.executed[start:]

    def compact(self, below_height: int) -> int:
        """Garbage-collect executed blocks at or below ``below_height``.

        Returns how many blocks were dropped from the executed log.  The
        rolling state root and the executed-hash set survive compaction,
        so execution dedup and checkpoint certification are unaffected.
        The block store is not compacted: it keeps every block it was
        handed, the dropped ones included (ancestry walks and block
        fetches still reach below the checkpoint), so compaction frees
        only the log's references.
        """
        drop = min(below_height - self.base_height, len(self.executed))
        if drop <= 0:
            return 0
        for block in self.executed[:drop]:
            self.base_state_root = fold_state_root(self.base_state_root, block.hash)
            self._partly_applied.pop(block.hash, None)
        del self.executed[:drop]
        self.base_height += drop
        return drop

    def state_root_at(self, height: int) -> Hash | None:
        """The rolling state root as of chain ``height``.

        ``None`` when the prefix below ``height`` is no longer retained
        (compacted away below the base).  Used to cross-check a
        checkpointed peer's certified root against a full-log replica.
        """
        if height < self.base_height or height > self.height():
            return None
        root = self.base_state_root
        for block in self.executed[: height - self.base_height]:
            root = fold_state_root(root, block.hash)
        return root
