"""Durable sealed TEE state for the socket runtime.

On the simulator, ``BaseReplica.crash()`` seals checker state in memory
and ``recover()`` unseals it.  A real process killed with SIGKILL gets
no chance to seal - so on the socket runtime the seal must already be
on disk *before* any signature that depends on it leaves the host.
:class:`DurableSealer` enforces exactly that: the asyncio runtime calls
:meth:`maybe_seal` at the top of every effect flush (after the handler
ran, before any frame is written), persisting a snapshot whenever the
checker's (view, phase) step advanced.  Restart then restores the
latest snapshot and primes the seal manager with the durable counter
record, so presenting a stale snapshot raises
:class:`~repro.errors.TEERefusal` exactly as the simulator path does.

The latest certified checkpoint rides along: whenever the replica's
checkpoint height advances, the sealer persists the checkpoint record
next to the snapshot, and :meth:`restore` reinstalls it (signature and
quorum re-verified, height checked against the sealed checker's
monotonic certified height) so a restarted replica resumes from its
certified horizon instead of replaying the whole chain.
"""

from __future__ import annotations

from repro.core.phases import Step
from repro.errors import TEERefusal
from repro.protocols.replica import BaseReplica
from repro.tee.checkpoint import verify_checkpoint
from repro.tee.sealed import FileSealStore


class DurableSealer:
    """Glue between one replica's checker and a :class:`FileSealStore`."""

    def __init__(self, replica: BaseReplica, store: FileSealStore) -> None:
        self.replica = replica
        self.store = store
        self._last_sealed: Step | None = None
        self._last_ckpt_height = 0
        self.seal_writes = 0
        self.checkpoint_writes = 0
        self.restored = False
        self.restored_checkpoint_height = 0

    @property
    def enabled(self) -> bool:
        """Protocols without a trusted component have nothing to seal."""
        return getattr(self.replica, "checker", None) is not None

    def restore(self) -> bool:
        """Restore the latest durable snapshot into the (fresh) replica.

        Returns ``True`` when a snapshot existed and was accepted.
        Always primes the replica's seal manager with the durable
        counter record first, so a rolled-back snapshot - however
        authentic - raises :class:`~repro.errors.TEERefusal` instead of
        reviving an older step.  Call before ``start()``.
        """
        if not self.enabled:
            return False
        component_id = self.replica.checker.component_id
        self.store.prime_manager(self.replica.seal_manager, component_id)
        sealed = self.store.load(component_id)
        if sealed is None:
            self._restore_checkpoint(component_id)
            return False
        self.replica.restore_tee_state(sealed)  # raises TEERefusal on rollback
        self._last_sealed = self.replica.checker.step
        self.restored = True
        self._restore_checkpoint(component_id)
        return True

    def _restore_checkpoint(self, component_id: int) -> None:
        """Reinstall the durable certified checkpoint, if one exists.

        The record is fully re-verified (Checker signature plus the
        embedded quorum commitment), and its height is checked against
        the sealed checker's certified height: the checker's monotonic
        checkpoint counter outlives a checkpoint-file rollback, so an
        older - however authentic - checkpoint is refused.
        """
        checkpoint = self.store.load_checkpoint(component_id)
        if checkpoint is None:
            return
        replica = self.replica
        verify_checkpoint(
            checkpoint, replica.scheme, replica.directory, replica.quorum
        )  # raises TEERefusal on forgery
        if checkpoint.height < replica.checker.checkpoint_height:
            raise TEERefusal(
                f"durable checkpoint rolled back (height {checkpoint.height} < "
                f"certified {replica.checker.checkpoint_height})"
            )
        if checkpoint.height > replica.checker.checkpoint_height:
            # A durable checkpoint newer than the sealed floor (e.g. the
            # seal predates it): the checker re-verifies and adopts the
            # certified tip so future certifications chain from it.
            replica.checker.tee_install_checkpoint(checkpoint)
        # start() runs after this and opens the pacemaker at this view.
        replica.view = replica.catchup.adopt_checkpoint(checkpoint)
        self._last_ckpt_height = checkpoint.height
        self.restored_checkpoint_height = checkpoint.height

    def maybe_seal(self) -> bool:
        """Persist a snapshot iff the checker's durable state advanced.

        Runs before outbound frames are queued, so the signature a
        restarted replica could try to re-issue is always covered by a
        durable step at least as high - re-signing a lower (view, phase)
        is impossible by construction.  The latest certified checkpoint
        is persisted under the same call whenever its height advanced
        (durability before visibility: both writes land before any
        frame or commit effect is interpreted).
        """
        if not self.enabled:
            return False
        checkpoint = self.replica.latest_checkpoint
        ckpt_advanced = (
            checkpoint is not None and checkpoint.height > self._last_ckpt_height
        )
        wrote = False
        key = self.replica.checker.step
        # A checkpoint-height advance forces a re-seal even at an unchanged
        # step: the snapshot carries the checker's monotonic certified
        # height, and the rollback check on restore is only as fresh as the
        # last seal that landed.
        if key != self._last_sealed or ckpt_advanced:
            sealed = self.replica.seal_tee_state()
            if sealed is not None:
                self.store.save(sealed)
                self._last_sealed = key
                self.seal_writes += 1
                wrote = True
        self._maybe_persist_checkpoint()
        return wrote

    def _maybe_persist_checkpoint(self) -> None:
        checkpoint = self.replica.latest_checkpoint
        if checkpoint is None or checkpoint.height <= self._last_ckpt_height:
            return
        self.store.save_checkpoint(
            self.replica.checker.component_id, checkpoint
        )
        self._last_ckpt_height = checkpoint.height
        self.checkpoint_writes += 1
