"""A replica's durable record on disk, for the socket runtime.

Both runtimes restart a replica the same way: the host keeps the bytes
of :meth:`~repro.protocols.replica.BaseReplica.durable_record` (its
``DURABLE`` attributes, latest checkpoint included, and the sealed
checker, whatever the protocol) and hands them to
:meth:`~repro.protocols.replica.BaseReplica.restore`.  They differ only
in where the bytes live and when they are written.  The simulator
announces a crash, so ``crash()`` keeps the record in memory; a process
killed with SIGKILL gets no warning, so :class:`DurableSealer` writes
the record to a :class:`~repro.tee.sealed.FileSealStore` - then its
checker's counter - at the top of every effect flush whose record
changed (after the handler ran, before any frame is written).  Restart
primes the seal manager with the durable counter and restores the
record before ``start()``, so presenting a stale record raises
:class:`~repro.errors.TEERefusal` exactly as the simulator path does.
"""

from __future__ import annotations

from repro.core.phases import Step
from repro.protocols.replica import BaseReplica
from repro.tee.sealed import FileSealStore


class DurableSealer:
    """Glue between one replica and a :class:`FileSealStore`."""

    def __init__(self, replica: BaseReplica, store: FileSealStore) -> None:
        self.replica = replica
        self.store = store
        self._written: tuple[bytes, Step | None] | None = None
        self.seal_writes = 0
        self.restored = False
        self.restored_checkpoint_height = 0

    def restore(self) -> bool:
        """Restore the replica's durable record into the (fresh) replica.

        Returns ``True`` when a record existed and was accepted.  Primes
        the replica's seal manager with the durable counter record first,
        so a rolled-back record - however authentic - raises
        :class:`~repro.errors.TEERefusal` instead of reviving an older
        step.  Call before ``start()``.
        """
        replica = self.replica
        record = self.store.load(replica.pid)
        if replica.checker is not None:
            self.store.prime_manager(replica.seal_manager, replica.checker.component_id)
        if record is None:
            return False
        replica.restore(record)  # raises TEERefusal on rollback
        self.restored = True
        checkpoint = replica.latest_checkpoint
        self.restored_checkpoint_height = 0 if checkpoint is None else checkpoint.height
        return True

    def maybe_seal(self) -> bool:
        """Persist the record iff what it keeps changed since the last write.

        Runs before outbound frames are queued, so a restarted replica
        never holds less than the cluster may have seen: a lower
        (view, phase) for its checker to re-sign, an older lock or
        certificate.  The checker's step stands for its sealed state: it
        changes with it, except at a checkpoint, which the payload carries.
        """
        replica = self.replica
        key = (replica.durable_payload(), None if replica.checker is None else replica.checker.step)
        if key == self._written:
            return False
        self.store.save(replica.pid, replica.durable_record())
        self._written = key
        self.seal_writes += 1
        return True
