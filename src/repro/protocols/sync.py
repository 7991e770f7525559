"""Catching up: how a replica that fell behind gets level.

Three components of every replica (``BaseReplica.COMPONENTS``), each
owning its declared state and its ``SERVICE_HANDLERS`` rows:
:class:`ViewSync` follows the (f+1)-th largest view peers claim,
:class:`BlockFetch` asks peers for the bodies of certified blocks it
never received, and :class:`StateTransfer` installs a peer's certified
checkpoint (:class:`SyncCheckpoint`) and the executed blocks above it
(:class:`SyncBlocks`) where peers compacted their log.  Nothing a peer
hands over is trusted unverified (``docs/protocols.md``, "View
synchronisation"; ``docs/architecture.md``, "Catch-up protocol").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

from repro.core.block import Block
from repro.core.codec import I64
from repro.core.commitment import Commitment
from repro.core.messages import MSG_HEADER_BYTES, BlockRequest, BlockResponse, ViewAnnounce
from repro.core.rng import RngStream
from repro.errors import TEERefusal
from repro.protocols.state import reset_volatile
from repro.runtime.effects import Commit
from repro.tee.checkpoint import Checkpoint, verify_checkpoint, verify_decide_qc

if TYPE_CHECKING:
    from repro.protocols.replica import BaseReplica
    from repro.runtime.machine import MachineTimer

#: Views behind the highest corroborated view before catch-up starts.
CATCHUP_VIEW_GAP = 8

#: Views behind the highest corroborated view before a replica jumps
#: there, and views behind its own before a replica answers a peer's
#: announcement with its last new-view.  Not 1: the chained protocols
#: route votes to the next view's leader, so a replica one hop behind
#: hears f+1 claims of ``view + 1`` in normal operation.
RESYNC_VIEW_GAP = 2

#: Server side: blocks per ``SyncBlocks`` chunk, and the least time
#: between two new sessions served to one requester.
SYNC_CHUNK_BLOCKS = 64
SYNC_MIN_INTERVAL_MS = 50.0

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

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4 + 4


@dataclass(frozen=True, slots=True)
class SyncCheckpoint:
    """A peer's latest certified checkpoint (verify before installing)."""

    checkpoint: Checkpoint

    msg_type = "sync-checkpoint"

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

    def wire_size(self) -> int:
        size = MSG_HEADER_BYTES + 4 + 1 + sum(b.wire_size() for b in self.blocks)
        if self.tip_qc is not None:
            size += self.tip_qc.wire_size()
        return size


class ViewSync:
    """One replica's view claims, their watermark and its stored new-view."""

    SERVICE_HANDLERS: ClassVar[dict[type, str]] = {ViewAnnounce: "_handle_view_announce"}
    # The watermark survives a crash and the claims do not, because the
    # watermark is a corroborated fact about the cluster that a restart
    # does not make false, while the claims are raw per-peer inputs the
    # next message from each peer rebuilds.
    VOLATILE: ClassVar[dict[str, Any]] = {
        "_peer_view_claims": dict,
        "_last_new_view": None,  # re-sent as stored, never re-signed
        "_resent_in_view": dict,  # the own view each peer was last re-sent it in
    }
    DURABLE: ClassVar[dict[str, Any]] = {"highest_view_seen": I64}
    WIRING = ("replica",)
    _peer_view_claims: dict[int, int]
    _resent_in_view: dict[int, int]

    def __init__(self, replica: "BaseReplica") -> None:
        self.replica = replica
        #: The highest view f+1 distinct peers have claimed.
        self.highest_view_seen = 0
        reset_volatile(self)

    def view_lag(self) -> int:
        """Views between the replica and the highest view it has heard of."""
        return max(0, self.highest_view_seen - self.replica.view)

    def note_claim(self, sender: int, view: int) -> None:
        """Track an *unauthenticated* future-view claim from ``sender``.

        A view field costs nothing to fake, so the watermark only advances
        to the (f+1)-th largest per-sender claim: one claimant is honest,
        so a correct replica is in that view or beyond.
        """
        replica = self.replica
        if sender == replica.pid or sender not in replica.replica_pids:
            # Own traffic is not a claim; non-replica senders never are.
            return
        if view <= self._peer_view_claims.get(sender, 0):
            return
        self._peer_view_claims[sender] = view
        corroborators = replica.num_replicas - replica.quorum + 1  # f + 1
        claims = sorted(self._peer_view_claims.values(), reverse=True)
        if len(claims) < corroborators:
            return
        corroborated = claims[corroborators - 1]
        if corroborated > self.highest_view_seen:
            self.highest_view_seen = corroborated
            self.resynchronise()

    def resynchronise(self) -> None:
        """The watermark moved: jump, unless a state transfer will say where to."""
        replica = self.replica
        self.note_possible_lag()
        if replica.catchup.active:
            return
        if self.highest_view_seen - replica.view >= RESYNC_VIEW_GAP:
            replica.advance_view(self.highest_view_seen)

    def note_possible_lag(self) -> None:
        """Behind-detection: (re)start catch-up when the view gap is too wide.

        Only with checkpointing on, where peers have compacted the blocks
        a jump would go on to fetch one by one.
        """
        replica = self.replica
        if replica.config.checkpoint_interval <= 0:
            return
        if self.highest_view_seen - replica.view >= CATCHUP_VIEW_GAP:
            replica.catchup.start()

    def announce(self) -> None:
        """Tell every peer which view the replica came back in.

        Peers views ahead answer with their stored new-view.  With
        checkpointing on a transfer round opens too: over TCP the frames
        peers queued meanwhile arrive first, in order, each lifting the
        corroborated view by less than :data:`CATCHUP_VIEW_GAP`, so
        following them would never open the transfer compaction calls for.
        """
        replica = self.replica
        replica.broadcast_charged(ViewAnnounce(replica.view), include_self=False)
        if replica.config.checkpoint_interval > 0:
            replica.catchup.start()

    def send_new_view(self, leader: int, msg: Any) -> None:
        """Send a new-view message to ``leader``, and keep it for re-sending."""
        self._last_new_view = msg
        self.replica.send_charged(leader, msg)

    def _handle_view_announce(self, sender: int, msg: ViewAnnounce) -> None:
        """A restarted peer's view: a claim if ahead of ours, answered if behind."""
        if msg.view > self.replica.view:
            self.note_claim(sender, msg.view)
        elif self.replica.view - msg.view >= RESYNC_VIEW_GAP:
            self._resend_new_view(sender)

    def _resend_new_view(self, peer: int) -> None:
        """Answer an announcement from views ago with the last new-view sent.

        The frame is a claim towards the f+1 that let ``peer`` jump here
        and, when it leads this view, its proposal's missing input.  Once
        per peer per own view; stale traffic at large is not answered.
        """
        msg, view = self._last_new_view, self.replica.view
        if msg is None or peer == self.replica.pid or self._resent_in_view.get(peer) == view:
            return
        self._resent_in_view[peer] = view
        self.replica.send_charged(peer, msg)


class BlockFetch:
    """One replica's parked executions and outstanding body requests."""

    SERVICE_HANDLERS: ClassVar[dict[type, str]] = {
        BlockRequest: "_handle_block_request",
        BlockResponse: "_handle_block_response",
    }
    VOLATILE: ClassVar[dict[str, Any]] = {"_pending_exec": dict, "_requested_blocks": set}
    WIRING = ("replica",)
    _pending_exec: dict[bytes, int]
    _requested_blocks: set[bytes]

    def __init__(self, replica: "BaseReplica") -> None:
        self.replica = replica
        reset_volatile(self)

    def park_execution(self, block: Block, view: int) -> None:
        """Execute ``block`` once the ancestors it is missing have arrived."""
        self._pending_exec[block.hash] = view
        self._request_missing_ancestors(block)

    def await_block(self, block_hash: bytes, sender: int, payload: Any) -> None:
        """Fetch a block ``payload`` cannot be handled without; re-deliver it then."""
        if block_hash in self.replica.store:
            # Nothing a fetch could supply: the caller's certificate names
            # this body wrongly (forged), and buys no traffic.  It also
            # means a message :meth:`_handle_block_response` re-delivers,
            # the body stored by then, never asks for the same hash twice.
            return
        if self.replica.buffer.hold(block_hash, sender, payload):
            self._fetch_block(block_hash)

    def forget(self, block_hash: bytes) -> None:
        """Let the next request for ``block_hash`` go out again."""
        self._requested_blocks.discard(block_hash)

    def _request_missing_ancestors(self, block: Block) -> None:
        """Fetch the nearest missing ancestor of ``block`` from the peers."""
        store, ledger = self.replica.store, self.replica.ledger
        cursor = block.parent_hash
        while True:
            existing = store.get(cursor)
            if existing is None:
                self._fetch_block(cursor)
                return
            if existing.is_genesis or cursor == ledger.last_executed_hash:
                return
            cursor = existing.parent_hash

    def _fetch_block(self, block_hash: bytes) -> None:
        """Ask every peer for a block body, once per hash."""
        if block_hash in self._requested_blocks:
            return
        self._requested_blocks.add(block_hash)
        request = BlockRequest(block_hash)
        replica = self.replica
        for pid in replica.replica_pids:
            if pid != replica.pid:
                replica.send_charged(pid, request)

    def _handle_block_request(self, sender: int, msg: BlockRequest) -> None:
        block = self.replica.store.get(msg.block_hash)
        if block is not None:
            self.replica.send_charged(sender, BlockResponse(block))

    def _handle_block_response(self, sender: int, msg: BlockResponse) -> None:
        replica = self.replica
        replica.store.add(msg.block)
        self._requested_blocks.discard(msg.block.hash)
        self._retry_pending_executions()
        for peer, payload in replica.buffer.release(msg.block.hash):
            replica.on_message(peer, payload)

    def _retry_pending_executions(self) -> None:
        for block_hash, view in list(self._pending_exec.items()):
            block = self.replica.store.get(block_hash)
            if block is None:
                continue
            del self._pending_exec[block_hash]
            # Re-enters execute_block: on another miss the execution is
            # parked again and the next missing ancestor gets fetched.
            self.replica.execute_block(block, view)


class StateTransfer:
    """Both sides of catch-up for one replica.

    A round re-arms its retry timer with seeded exponential backoff and
    jitter, rotating peers on every expiry, and gives up after
    :data:`CATCHUP_MAX_RETRIES` expiries without progress; ``retries`` is
    cumulative (surfaced in health snapshots).
    """

    SERVICE_HANDLERS: ClassVar[dict[type, str]] = {
        SyncRequest: "_handle_sync_request",
        SyncCheckpoint: "_handle_sync_checkpoint",
        SyncBlocks: "_handle_sync_blocks",
    }
    VOLATILE: ClassVar[dict[str, Any]] = {
        "active": False,
        "gave_up": False,
        "peer": None,  # the one peer whose sync replies are accepted
        "_peer_cursor": 0,
        "_attempts": 0,
        "_timeout_ms": CATCHUP_TIMEOUT_MS,
        "_timer": None,
        "_sync_buffer": list,  # verified suffix blocks awaiting the tip QC
        # Server side: when each requester last opened a session, and the
        # start height expected next from each one mid-transfer.
        "_sync_served_at": dict,
        "_sync_cursor": dict,
    }
    WIRING = ("replica", "_rng", "retries", "completed")
    peer: int | None
    _timer: "MachineTimer | None"
    _sync_buffer: list[Block]
    _sync_served_at: dict[int, float]
    _sync_cursor: dict[int, int]

    def __init__(self, replica: "BaseReplica") -> None:
        self.replica = replica
        self._rng = RngStream(replica.config.seed, f"catchup:{replica.pid}")
        self.retries = 0
        self.completed = 0
        reset_volatile(self)

    # -- requester: the round ----------------------------------------------

    def start(self) -> None:
        """Begin (or re-begin) a catch-up round; no-op while one runs."""
        if self.active or self.replica.crashed:
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
        """Catch-up complete: stop retrying, drop any unexecuted suffix."""
        if self.active:
            self.completed += 1
        self.active = False
        self.peer = None
        self._sync_buffer.clear()
        self._cancel_timer()

    def note_progress(self) -> None:
        """Fresh verified data arrived: reset the backoff, keep waiting."""
        if not self.active:
            return
        self._attempts = 0
        self._timeout_ms = CATCHUP_TIMEOUT_MS
        self._arm_timer()

    def _peers(self) -> list[int]:
        return [p for p in self.replica.replica_pids if p != self.replica.pid]

    def _have_height(self) -> int:
        """The replica's height counting buffered transfer blocks."""
        return self.replica.ledger.height() + len(self._sync_buffer)

    def _send_request(self) -> None:
        self._sync_buffer.clear()  # a new peer restarts the transfer
        peers = self._peers()
        peer = peers[self._peer_cursor % len(peers)]
        self._peer_cursor += 1
        self.peer = peer
        replica = self.replica
        replica.send_charged(peer, SyncRequest(replica.ledger.height(), replica.view))
        self._arm_timer()

    def _arm_timer(self) -> None:
        self._cancel_timer()
        delay = self._rng.jitter(self._timeout_ms, CATCHUP_JITTER)
        self._timer = self.replica.set_timer(delay, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        if not self.active or self.replica.crashed:
            return
        self.retries += 1
        self._attempts += 1
        if self._attempts >= CATCHUP_MAX_RETRIES:
            self.active = False
            self.gave_up = True
            self.peer = None
            self._sync_buffer.clear()
            return
        self._timeout_ms = min(self._timeout_ms * CATCHUP_BACKOFF, CATCHUP_MAX_TIMEOUT_MS)
        self._send_request()

    # -- server --------------------------------------------------------------

    def _handle_sync_request(self, sender: int, msg: SyncRequest) -> None:
        """Serve a lagging peer: checkpoint first, then a bounded chunk.

        New sessions are rate-limited per sender (no amplification attack
        on an honest replica); a continuation of a chunked transfer is
        exempt, or a transfer would stall into timeout-paced retries.
        """
        replica = self.replica
        if replica.config.checkpoint_interval <= 0 or sender == replica.pid:
            return
        continuation = self._sync_cursor.get(sender) == msg.have_height
        if not continuation:
            last = self._sync_served_at.get(sender)
            if last is not None and replica.now - last < SYNC_MIN_INTERVAL_MS:
                return
            self._sync_served_at[sender] = replica.now
        self._sync_cursor.pop(sender, None)
        start_height = msg.have_height
        checkpoint = replica.latest_checkpoint
        if checkpoint is not None and checkpoint.height > start_height:
            replica.send_charged(sender, SyncCheckpoint(checkpoint))
            start_height = checkpoint.height
        suffix = replica.ledger.executed_since(start_height)
        if suffix is None:
            return  # prefix compacted away and no newer checkpoint to offer
        qc = replica.last_commit_qc
        if suffix and (qc is None or qc.h_prep != suffix[-1].hash):
            # Without a decide certificate for the tip the receiver could
            # not verify the suffix; serve the certified horizon only.
            suffix = []
        chunk = suffix[:SYNC_CHUNK_BLOCKS]
        done = len(chunk) == len(suffix)
        tip_qc = qc if done and chunk else None
        replica.send_charged(sender, SyncBlocks(start_height, tuple(chunk), done, tip_qc))
        if not done:
            self._sync_cursor[sender] = start_height + len(chunk)

    # -- requester: what the peer sends back ---------------------------------

    def _handle_sync_checkpoint(self, sender: int, msg: SyncCheckpoint) -> None:
        replica = self.replica
        if not self.active or sender != self.peer:
            return  # unsolicited: only the peer being synced from may reply
        checkpoint = msg.checkpoint
        if checkpoint.height <= replica.ledger.height():
            return  # stale: we already hold at least this much state
        replica.charge_verify(replica.quorum + 1)
        try:
            verify_checkpoint(checkpoint, replica.scheme, replica.directory, replica.quorum)
        except TEERefusal:
            return  # forged or malformed: drop it, the retry rotates peers
        if replica.checker is not None:
            # The checker re-verifies and adopts the tip, so its monotonic
            # floor covers installed state (a stale one never rewinds it).
            replica.charge_tee(signs=0, verifies=replica.quorum + 1)
            try:
                replica.checker.tee_install_checkpoint(checkpoint)
            except TEERefusal:
                return
        view = self.adopt_checkpoint(checkpoint)
        replica.caught_up_via_checkpoint = True
        reset_volatile(replica.fetch)  # parked executions predate the install
        self._sync_buffer.clear()  # and so does any buffered suffix
        self.note_progress()
        replica.advance_view(view)

    def adopt_checkpoint(self, checkpoint: Checkpoint) -> int:
        """Fast-forward ledger and horizon to a verified ``checkpoint``.

        Shared by a transfer and by a process restored from its durable
        checkpoint record; returns the view to resume in.
        """
        replica = self.replica
        if checkpoint.height > replica.ledger.height():
            replica.ledger.install_checkpoint(
                checkpoint.height, checkpoint.block_hash, checkpoint.state_root, checkpoint.view
            )
        replica.latest_checkpoint = checkpoint
        replica.last_committed_view = max(replica.last_committed_view, checkpoint.view)
        return max(replica.view, checkpoint.view + 1)

    def _handle_sync_blocks(self, sender: int, msg: SyncBlocks) -> None:
        """Buffer a transfer chunk; execute once the tip QC verifies.

        The suffix must hash-chain from trusted state, and executes only
        under a verified decide-phase quorum commitment for its tip, which
        transitively certifies every chained block below it.
        """
        replica = self.replica
        if not self.active or sender != self.peer:
            return  # unsolicited: only the peer being synced from may reply
        if msg.start_height != self._have_height():
            return  # out-of-order chunk; the retry timer re-requests
        buffer = self._sync_buffer
        prev_hash = buffer[-1].hash if buffer else replica.ledger.last_executed_hash
        for block in msg.blocks:
            if block.parent_hash != prev_hash:
                buffer.clear()
                return  # broken suffix: drop it, retry against another peer
            buffer.append(block)
            prev_hash = block.hash
        if not msg.done:  # ask the same peer for the chunk after this one
            self.note_progress()
            replica.send_charged(sender, SyncRequest(self._have_height(), replica.view))
            self._arm_timer()
            return
        if buffer:
            replica.charge_verify(replica.quorum)
            try:
                if msg.tip_qc is None:
                    raise TEERefusal("sync: final chunk carries no tip certificate")
                verify_decide_qc(
                    msg.tip_qc, buffer[-1].hash, replica.scheme, replica.directory, replica.quorum
                )
            except TEERefusal:
                buffer.clear()
                return  # uncertified suffix: drop it, the retry rotates peers
            replica.note_commit_qc(msg.tip_qc)
        for block in buffer:
            replica.store.add(block)
            replica.ledger.apply_synced(block)
            replica.mempool.purge_committed(block.client_keys())
            replica._emit(Commit(block, len(replica.ledger.applied_transactions(block))))
        tip = buffer[-1] if buffer else None
        self.finish()
        if tip is not None:
            replica.last_committed_view = max(replica.last_committed_view, tip.view)
            replica.advance_view(max(replica.view, tip.view + 1))
        # Claims heard during the round moved the watermark, not the view.
        replica.viewsync.resynchronise()
