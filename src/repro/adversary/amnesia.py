"""Crash-recover amnesia: restart from an older durable record.

The classic rollback attack on TEE-backed BFT (the reason TrInc-style
designs need monotonic counters): crash a replica, then restart it from
an *older* record, so its Checker forgets certificates it already issued
and can be driven to equivocate.  The platform's seal service models
SGX's monotonic counter: every seal bumps a counter the host cannot
rewind, so the stale - however authentic - sealed checker in an older
record raises :class:`~repro.errors.TEERefusal` and the replica cannot
rejoin with amnesia.

This adversary is the host playing that attack: before its first crash
it writes a record and keeps it, and before every recovery it puts that
older record back on its disk.  The refusal is counted
(``rollback_refusals``); the host then puts the genuine record back, so
the replica rejoins with full memory - the attack buys nothing but
downtime.  A protocol without a Checker seals nothing, so it has nothing
to roll back: the attack needs one.
"""

from __future__ import annotations

from repro.adversary.behaviors import Behaviour
from repro.errors import TEERefusal
from repro.protocols.replica import BaseReplica


class Amnesia(Behaviour):
    """Presents an older durable record on every recovery."""

    WIRING = ("stale_disk", "rollback_attempts", "rollback_refusals")
    stale_disk = b""  # the older record the host keeps aside
    rollback_attempts = rollback_refusals = 0

    @classmethod
    def unfit(cls, base: type[BaseReplica]) -> str | None:
        return None if base.CHECKER is not None else "no Checker, so no sealed state to roll back"

    def crash(self) -> None:
        if not self.crashed and not self.stale_disk:
            self.stale_disk = self.durable_record()
        super().crash()

    def recover(self) -> None:
        if self.crashed and self.stale_disk:
            genuine, self.disk = self.disk, self.stale_disk
            self.rollback_attempts += 1
            try:
                super().recover()
            except TEERefusal:
                self.rollback_refusals += 1
            else:
                # The seal service accepted a rollback: the defense this
                # adversary exists to probe is broken.  Surface it hard.
                raise AssertionError("amnesia adversary: an older durable record was accepted")
            self.disk = genuine
        super().recover()
