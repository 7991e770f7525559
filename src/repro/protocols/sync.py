"""State-transfer catch-up: sans-I/O messages and the requester machine.

A replica that was dead or partitioned for thousands of views cannot
rejoin by replaying history - peers garbage-collect their executed log
below the checkpoint horizon.  Instead it runs the catch-up protocol:

1. :class:`SyncRequest` - "I am at height h, view v; bring me forward."
2. :class:`SyncCheckpoint` - the peer's latest Checker-certified
   checkpoint, sent when it is ahead of the requester's height.
3. :class:`SyncBlocks` - a bounded chunk of executed blocks above the
   requester's (post-checkpoint) height; ``done`` marks the last chunk
   and carries the decide-phase quorum commitment for the suffix tip,
   otherwise the requester immediately asks the same peer for more.

The requester trusts nothing it is handed: checkpoints are verified
against the certifying Checker signature, and a block suffix is buffered
until the final chunk, then executed only once the tip commitment
verifies - the hash chain from a verified starting point plus a quorum
certificate on the tip transitively covers every block in between.
Replies are only accepted from the peer currently being synced from.

The requester side lives in :class:`CatchUpClient`: seeded exponential
backoff with jitter (the sans-I/O sibling of the reconnect backoff in
:mod:`repro.runtime.asyncio_net`), a retry cap, and deterministic peer
rotation.  Server-side rate limiting and chunking live in
:class:`~repro.protocols.replica.BaseReplica`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.block import Block
from repro.core.commitment import Commitment
from repro.core.messages import MSG_HEADER_BYTES
from repro.core.rng import RngStream
from repro.tee.checkpoint import Checkpoint

if TYPE_CHECKING:
    from repro.protocols.replica import BaseReplica
    from repro.runtime.machine import MachineTimer

#: Catch-up retry schedule: the timeout starts at CATCHUP_TIMEOUT_MS,
#: grows by CATCHUP_BACKOFF per expiry up to the ceiling, and every armed
#: timer is perturbed by +/- CATCHUP_JITTER of seeded jitter.  A round
#: gives up (until the next behind-detection trigger) after
#: CATCHUP_MAX_RETRIES expiries without progress.
CATCHUP_TIMEOUT_MS = 500.0
CATCHUP_MAX_RETRIES = 25
CATCHUP_BACKOFF = 2.0
CATCHUP_MAX_TIMEOUT_MS = 5_000.0
CATCHUP_JITTER = 0.25


@dataclass(frozen=True, slots=True)
class SyncRequest:
    """Ask a peer for a checkpoint and/or block suffix beyond our height."""

    have_height: int
    have_view: int

    msg_type = "sync-request"

    @property
    def view(self) -> None:
        return None

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4 + 4


@dataclass(frozen=True, slots=True)
class SyncCheckpoint:
    """A peer's latest certified checkpoint (verify before installing)."""

    checkpoint: Checkpoint

    msg_type = "sync-checkpoint"

    @property
    def view(self) -> None:
        return None

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + self.checkpoint.wire_size()


@dataclass(frozen=True, slots=True)
class SyncBlocks:
    """One chunk of executed blocks starting just above ``start_height``.

    The final chunk (``done``) carries ``tip_qc``, the decide-phase
    quorum commitment for the last block of the whole suffix; without a
    verifiable tip certificate the receiver executes nothing.
    """

    start_height: int
    blocks: tuple[Block, ...]
    done: bool
    tip_qc: Commitment | None = None

    msg_type = "sync-blocks"

    @property
    def view(self) -> None:
        return None

    def wire_size(self) -> int:
        size = MSG_HEADER_BYTES + 4 + 1 + sum(b.wire_size() for b in self.blocks)
        if self.tip_qc is not None:
            size += self.tip_qc.wire_size()
        return size


class CatchUpClient:
    """Requester-side catch-up state machine (one per replica).

    Emits :class:`SyncRequest` effects through its machine and re-arms a
    retry timer with seeded exponential backoff + jitter; every expiry
    rotates to the next peer.  ``retries`` is cumulative (surfaced in
    health snapshots); the per-round attempt count is capped by
    :data:`CATCHUP_MAX_RETRIES`, after which the client gives up until the
    next behind-detection trigger.
    """

    def __init__(self, machine: "BaseReplica") -> None:
        self.machine = machine
        self._rng = RngStream(machine.config.seed, f"catchup:{machine.pid}")
        self.active = False
        self.gave_up = False
        self.retries = 0
        self.completed = 0
        #: The peer currently being synced from; sync replies from any
        #: other sender are ignored (a Byzantine peer must not be able to
        #: inject state transfer traffic it was never asked for).
        self.peer: int | None = None
        self._attempts = 0
        self._timeout_ms = CATCHUP_TIMEOUT_MS
        self._timer: "MachineTimer | None" = None
        self._peer_cursor = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin (or re-begin) a catch-up round; no-op while one runs."""
        if self.active or self.machine.crashed:
            return
        self.active = True
        self.gave_up = False
        self._attempts = 0
        self._timeout_ms = CATCHUP_TIMEOUT_MS
        peers = self._peers()
        if not peers:
            self.active = False
            return
        self._peer_cursor = self._rng.randint(0, len(peers) - 1)
        self._send_request()

    def finish(self) -> None:
        """Catch-up complete: stop retrying."""
        if self.active:
            self.completed += 1
        self.active = False
        self.peer = None
        self._cancel_timer()

    def reset(self) -> None:
        """Crash path: drop all volatile catch-up state."""
        self.active = False
        self.gave_up = False
        self.peer = None
        self._attempts = 0
        self._timeout_ms = CATCHUP_TIMEOUT_MS
        self._cancel_timer()

    # -- progress signals from the replica's sync handlers ------------------

    def note_progress(self) -> None:
        """Fresh verified data arrived: reset the backoff, keep waiting."""
        if not self.active:
            return
        self._attempts = 0
        self._timeout_ms = CATCHUP_TIMEOUT_MS
        self._arm_timer()

    def request_next(self, peer: int) -> None:
        """Continue a chunked transfer from the peer that just served us.

        The requested height counts the verified-but-unexecuted blocks
        buffered for this transfer, so each continuation asks for the
        chunk after the one just received.
        """
        if not self.active:
            return
        machine = self.machine
        machine.send_charged(
            peer, SyncRequest(machine.sync_have_height(), machine.view)
        )
        self._arm_timer()

    # -- internals ----------------------------------------------------------

    def _peers(self) -> list[int]:
        return [p for p in self.machine.replica_pids if p != self.machine.pid]

    def _send_request(self) -> None:
        machine = self.machine
        machine.drop_sync_session()  # a new peer restarts the transfer
        peers = self._peers()
        peer = peers[self._peer_cursor % len(peers)]
        self._peer_cursor += 1
        self.peer = peer
        machine.send_charged(peer, SyncRequest(machine.ledger.height(), machine.view))
        self._arm_timer()

    def _arm_timer(self) -> None:
        self._cancel_timer()
        delay = self._rng.jitter(self._timeout_ms, CATCHUP_JITTER)
        self._timer = self.machine.set_timer(delay, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        if not self.active or self.machine.crashed:
            return
        self.retries += 1
        self._attempts += 1
        if self._attempts >= CATCHUP_MAX_RETRIES:
            self.active = False
            self.gave_up = True
            self.peer = None
            self.machine.drop_sync_session()
            return
        self._timeout_ms = min(self._timeout_ms * CATCHUP_BACKOFF, CATCHUP_MAX_TIMEOUT_MS)
        self._send_request()
