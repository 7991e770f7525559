"""Crash-recover amnesia: restart presenting pre-seal TEE state.

The classic rollback attack on TEE-backed BFT (the reason TrInc-style
designs need monotonic counters): crash a replica, then restart it from
an *older* sealed snapshot, so its Checker forgets certificates it
already issued and can be driven to equivocate.  The platform's seal
service models SGX's monotonic counter: every seal bumps a counter the
host cannot rewind, so presenting a stale - however authentic -
snapshot raises :class:`~repro.errors.TEERefusal` and the replica
cannot rejoin with amnesia.

This adversary automates the attempt: it stashes its very first sealed
snapshot at startup, and on every recovery it first presents that
pre-crash state.  The refusal is counted (``rollback_refusals``); the
host then gives up and restores the genuine latest seal, so the replica
rejoins with full memory - the attack buys nothing but downtime.
"""

from __future__ import annotations

from repro.errors import TEERefusal
from repro.protocols.damysus import DamysusReplica
from repro.protocols.replica import _OWN_SNAPSHOT
from repro.tee.sealed import SealedState


class AmnesiaDamysusReplica(DamysusReplica):
    """Presents rolled-back sealed state on every recovery."""

    DURABLE = ("_stale_seal",)  # the host's copy of the pristine seal
    WIRING = ("rollback_attempts", "rollback_refusals")
    _stale_seal: SealedState | None = None
    rollback_attempts = rollback_refusals = 0

    def start(self) -> None:
        # Seal the pristine checker before doing anything: this is the
        # "pre-seal state" the host will later try to restart from.
        self._stale_seal = self.seal_tee_state()
        super().start()

    def recover(self, sealed=_OWN_SNAPSHOT) -> None:
        if sealed is _OWN_SNAPSHOT and self._stale_seal is not None:
            self.rollback_attempts += 1
            try:
                super().recover(sealed=self._stale_seal)
            except TEERefusal:
                self.rollback_refusals += 1
            else:
                # The seal service accepted a rollback: the defense this
                # adversary exists to probe is broken.  Surface it hard.
                raise AssertionError(
                    "amnesia adversary: stale sealed state was accepted"
                )
            # Rollback refused; fall through to an honest restart from
            # the genuine latest snapshot taken at crash time.
        super().recover(sealed=sealed)
