"""Replica base class: the chassis shared by all seven protocols.

Responsibilities handled here so protocol modules stay close to the
paper's pseudocode: table-driven message dispatch (``SERVICE_HANDLERS``
for the chassis's own traffic, ``HANDLERS`` with future-view buffering
for a protocol's), view advancement, leader schedule, CPU cost charging,
quorum collection, block execution with client replies, and pacemaker
integration.

A protocol *declares* its handlers, per-view state, checker flavour and
new-view action (:class:`BaseReplica`'s class attributes); dispatch,
construction, crash reset, pruning and the view lifecycle derive from that.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar

from repro.config import SystemConfig
from repro.crypto.keys import KeyDirectory
from repro.crypto.scheme import SignatureScheme
from repro.core.chain import BlockStore
from repro.core.block import Block, create_chain, create_leaf
from repro.core.clock import Clock
from repro.core.codec import wire_size_of
from repro.core.commitment import Commitment
from repro.core.executor import Ledger, SafetyOracle
from repro.core.mempool import SYNTHETIC_CLIENT_ID, AdmissionVerdict, Transaction
from repro.mempool.pool import PriorityMempool
from repro.core.messages import BlockRequest, BlockResponse, ClientReply, ClientRequest
from repro.core.messages import CommitmentMsg, ViewAnnounce
from repro.core.monitor import ExecutionMonitor
from repro.core.phases import Phase, Step
from repro.core.rng import RngStream
from repro.errors import MissingBlockError, TEERefusal
from repro.protocols.pacemaker import Pacemaker, round_robin_leader
from repro.protocols.sync import CatchUpClient, SyncBlocks, SyncCheckpoint, SyncRequest
from repro.runtime.effects import Commit
from repro.runtime.machine import Machine
from repro.tee.checker import Checker
from repro.tee.checkpoint import Checkpoint, verify_checkpoint, verify_decide_qc
from repro.tee.sealed import SealedState, SealManager

#: Cap on buffered future-view messages per replica (Byzantine flood guard).
MAX_BUFFERED_MESSAGES = 10_000

#: Views behind the highest corroborated view before catch-up starts.
CATCHUP_VIEW_GAP = 8

#: Views behind the highest corroborated view before a replica jumps
#: there, and views behind its own before a replica answers a peer's
#: announcement with its last new-view.  Not 1: the chained protocols
#: route votes to the next view's leader, so a replica one hop behind
#: hears f+1 claims of ``view + 1`` in normal operation.
RESYNC_VIEW_GAP = 2

#: State transfer, server side: blocks per ``SyncBlocks`` chunk, and the
#: least time between two new sessions served to one requester.
SYNC_CHUNK_BLOCKS = 64
SYNC_MIN_INTERVAL_MS = 50.0

#: Sentinel: ``recover()`` restores the snapshot taken by ``crash()``.
_OWN_SNAPSHOT = object()


def discard_views_below(entries: "set[Any] | dict[Any, Any]", view: int) -> None:
    """Drop the entries of a view-keyed set or dict that lie below ``view``."""
    # Keys are either a view number or a tuple whose first element is
    # one; anything else is left alone.
    for key in list(entries):
        key_view = key[0] if isinstance(key, tuple) and key else key
        if isinstance(key_view, int) and key_view < view:
            if isinstance(entries, set):
                entries.discard(key)
            else:
                del entries[key]


class QuorumCollector:
    """Collects deduplicated items per key until a threshold is reached.

    ``add`` returns the full item list exactly once - on the call that
    reaches the threshold - and ``None`` before and after, which is how
    leaders act exactly once per (view, phase) quorum.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._items: dict[Any, list[Any]] = {}
        self._dedup: dict[Any, set[Any]] = {}
        self._done: set[Any] = set()

    def add(self, key: Any, item: Any, dedup_id: Any) -> list[Any] | None:
        if key in self._done:
            return None
        seen = self._dedup.setdefault(key, set())
        if dedup_id in seen:
            return None
        seen.add(dedup_id)
        items = self._items.setdefault(key, [])
        items.append(item)
        if len(items) == self.threshold:
            self._done.add(key)
            return list(items)
        return None

    def count(self, key: Any) -> int:
        return len(self._items.get(key, ()))

    def reached(self, key: Any) -> list[Any] | None:
        """The quorum collected for ``key``, once (and ever after) complete."""
        return list(self._items[key]) if key in self._done else None

    def pending_keys(self) -> int:
        """Number of keys currently holding state (for GC assertions)."""
        return len(self._items) + len(self._done)

    def discard_before_view(self, view: int) -> None:
        """Garbage-collect state for views below ``view``."""
        for entries in (self._items, self._dedup, self._done):
            discard_views_below(entries, view)


class BaseReplica(Machine):
    """Common replica machinery; protocol subclasses implement handlers.

    Replicas are sans-I/O state machines: handlers emit
    :mod:`repro.runtime.effects` (flushed to the attached runtime when the
    outermost entry point returns) and read time from an injected
    :class:`~repro.core.clock.Clock` - never from a simulator or socket.
    """

    ENTRY_POINTS = Machine.ENTRY_POINTS + ("dispatch", "advance_view", "execute_block")

    #: The replica's Checker trusted component, if the protocol has one.
    checker: Checker | None = None

    # -- what a protocol declares ---------------------------------------------

    #: The Checker flavour every replica carries (``None``: no checker).
    CHECKER: ClassVar[type[Checker] | None] = None
    #: Core phases the basic protocols vote on, in order; the last one's
    #: certificate decides.  Empty for the chained pair, whose single
    #: generic phase is pipelined across views.
    PHASES: ClassVar[tuple[Phase, ...]] = ()
    #: Handler table: message class - or ``(CommitmentMsg, kind)`` - to the
    #: name of the handler method, optionally with fixed extra arguments
    #: as ``(name, arg, ...)``.  Resolved once per class, so a subclass
    #: that overrides a handler by name is routed to its override.
    HANDLERS: ClassVar[dict[Any, Any]] = {}
    #: The chassis's own traffic, served in any view and without a receive
    #: charge, before the view check ``HANDLERS`` traffic goes through:
    #: client requests, block fetches, state transfer, view announcements.
    SERVICE_HANDLERS: ClassVar[dict[type, str]] = {
        ClientRequest: "_handle_client_request",
        BlockRequest: "_handle_block_request",
        BlockResponse: "_handle_block_response",
        SyncRequest: "_handle_sync_request",
        SyncCheckpoint: "_handle_sync_checkpoint",
        SyncBlocks: "_handle_sync_blocks",
        ViewAnnounce: "_handle_view_announce",
    }
    #: Message classes whose ``block`` is kept even when they arrive after
    #: their view ended: execution follows certified hashes, so a replica
    #: that skipped a decide still needs the body to execute descendants.
    STALE_BLOCK_MSGS: ClassVar[tuple[type, ...]] = ()
    #: Message classes addressed to the *next* view's leader, who collects
    #: them after advancing (the chained protocols' votes): routed, and
    #: buffered, as view + 1.
    NEXT_VIEW_MSGS: ClassVar[tuple[type, ...]] = ()
    #: Per-view volatile state, by attribute name: ``QuorumCollector``s and
    #: sets keyed by a view (or a tuple led by one).  Built at
    #: construction, rebuilt empty by a crash, pruned on view change.
    COLLECTORS: ClassVar[tuple[str, ...]] = ()
    VIEW_SETS: ClassVar[tuple[str, ...]] = ()
    #: Views of per-view state kept behind the current one.  Stale
    #: messages cannot resurrect pruned state because below-view traffic
    #: is never dispatched.
    PRUNE_SLACK: ClassVar[int] = 1

    # The per-view vocabulary the protocols share; an attribute exists on a
    # replica only if its class names it in COLLECTORS or VIEW_SETS.
    _new_views: QuorumCollector
    _votes: QuorumCollector
    _proposed: set[int]
    _voted: set[Any]
    _decided: set[int]

    _handlers: ClassVar[dict[Any, tuple[Callable[..., None], tuple[Any, ...]]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {}
        for key, entry in cls.HANDLERS.items():
            name, *args = (entry,) if isinstance(entry, str) else entry
            kind_or_class = key[1] if isinstance(key, tuple) else key
            cls._handlers[kind_or_class] = (getattr(cls, name), tuple(args))

    def __init__(  # noqa: PLR0913 - wiring point for the whole stack
        self,
        pid: int,
        clock: Clock,
        config: SystemConfig,
        scheme: SignatureScheme,
        directory: KeyDirectory,
        num_replicas: int,
        quorum: int,
        oracle: SafetyOracle | None = None,
        monitor: ExecutionMonitor | None = None,
        client_pids: dict[int, int] | None = None,
    ) -> None:
        super().__init__(pid, clock)
        self.config = config
        self.costs = config.costs
        self.scheme = scheme
        self.directory = directory
        self.num_replicas = num_replicas
        self.quorum = quorum
        self.store = BlockStore()
        self.ledger = Ledger(pid, self.store, oracle, monitor)
        self.mempool = PriorityMempool(
            config.payload_bytes,
            config.block_size,
            open_loop=config.open_loop,
            max_txs=config.mempool_max_txs,
            max_bytes=config.mempool_max_bytes,
            max_block_bytes=config.max_block_bytes,
            rate_limit_per_ms=config.sender_rate_limit,
            rate_burst=config.sender_rate_burst,
        )
        # Consensus views start at 1; view 0 belongs to the genesis block,
        # so any genuinely prepared block outranks the genesis certificate.
        self.view = 1
        self.client_pids = client_pids or {}
        self.replica_pids: list[int] = list(range(num_replicas))
        self.pacemaker = Pacemaker(
            self,
            config.timeout_ms,
            on_timeout=self._on_pacemaker_timeout,
            max_timeout_ms=config.max_timeout_ms or None,
            jitter_fraction=config.timeout_jitter,
            rng=(
                RngStream(config.seed, f"pacemaker-jitter:{pid}")
                if config.timeout_jitter > 0.0
                else None
            ),
        )
        self._buffered: dict[int, list[tuple[int, Any]]] = {}
        self._buffered_count = 0
        # Block synchronization: executions waiting on missing block
        # bodies, and the hashes already requested from peers.
        self._pending_exec: dict[bytes, int] = {}
        self._requested_blocks: set[bytes] = set()
        # Crash-recovery: the platform's rollback-protected seal service
        # (the role SGX delegates to a trusted monotonic counter) plus the
        # snapshot taken at the last crash.
        self.seal_manager = SealManager()
        self._sealed_snapshot: SealedState | None = None
        self.crash_count = 0
        self.recovery_count = 0
        # Checkpoints & state transfer.  The latest certified checkpoint
        # (own or installed from a peer) is what this replica serves and
        # what the durable layer persists; the catch-up client drives the
        # requester side when behind-detection fires.
        self.latest_checkpoint: Checkpoint | None = None
        self.caught_up_via_checkpoint = False
        self.last_committed_view = 0
        self.catchup = CatchUpClient(self)
        self._last_commit_qc: Commitment | None = None
        # Highest view this replica trusts the cluster to have reached:
        # its own view, or a view at least f+1 distinct peers have sent
        # traffic for (one of them must be honest) - a single Byzantine
        # peer claiming an absurd view must not drive behind-detection.
        self._highest_view_seen = 0
        self._peer_view_claims: dict[int, int] = {}
        # Re-synchronisation: the last new-view message this replica sent
        # (re-sent as stored, never re-signed, to a peer heard from views
        # behind) and the own view each peer was last re-sent it in.
        self._last_new_view: Any = None
        self._resent_in_view: dict[int, int] = {}
        # Messages waiting on a block body being fetched, by its hash.
        self._awaiting_block: dict[bytes, list[tuple[int, Any]]] = {}
        self._sync_served_at: dict[int, float] = {}
        # Server side of chunked transfers: next start height expected
        # from each requester mid-transfer (continuations bypass the
        # per-sender rate limit so multi-chunk transfers never stall).
        self._sync_cursor: dict[int, int] = {}
        # Requester side: verified-but-unexecuted suffix blocks, held
        # until the final chunk's tip commitment proves the whole suffix
        # was actually decided by a quorum.
        self._sync_buffer: list[Block] = []
        # Not the virtual call: a subclass hook that extends the reset may
        # touch attributes its own ``__init__`` has not created yet.
        BaseReplica.reset_protocol_state(self)
        if self.CHECKER is not None:
            self.checker = self._make_checker()

    # -- leader schedule -------------------------------------------------------

    def leader_of(self, view: int) -> int:
        """Pid of the deterministic leader of ``view``."""
        return self.replica_pids[round_robin_leader(view, self.num_replicas)]

    def is_leader(self, view: int) -> bool:
        return self.leader_of(view) == self.pid

    # -- crash / recovery ------------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: seal TEE state, drop volatile state, go silent.

        The sealed snapshot models what the host's disk retains across a
        restart; everything else a replica holds in memory (buffered
        messages, quorum collections, in-flight fetches, the mempool's
        residents and replay memory) is lost.
        """
        if self.crashed:
            return
        self._sealed_snapshot = self.seal_tee_state()
        super().crash()
        self.crash_count += 1
        self.pacemaker.cancel()
        self.reset_volatile_state()

    def recover(self, sealed: "SealedState | None | object" = _OWN_SNAPSHOT) -> None:
        """Restart this replica from sealed TEE state and rejoin.

        ``sealed`` defaults to the snapshot taken by :meth:`crash`; tests
        and adversaries may present a different (e.g. rolled-back) seal,
        which the TEE rejects with :class:`~repro.errors.TEERefusal` -
        the replica then stays crashed.  On success the replica rejoins
        at its pacemaker's view, tells every peer where it is
        (:meth:`_announce_view`) and is carried to the cluster's view by
        the new-views they re-send (:meth:`_note_view_claim`); the blocks
        it missed arrive through block synchronization at its next decide.
        """
        if not self.crashed:
            return
        snapshot = self._sealed_snapshot if sealed is _OWN_SNAPSHOT else sealed
        self.restore_tee_state(snapshot)  # raises TEERefusal on rollback
        super().recover()
        self.recovery_count += 1
        self.pacemaker.start_view(self.view)
        self._announce_view()
        self.on_recovered()

    def seal_tee_state(self) -> SealedState | None:
        """Seal the checker's protected state (``None`` without a TEE)."""
        if self.checker is None:
            return None
        return self.seal_manager.seal(self.checker)

    def restore_tee_state(self, sealed: SealedState | None) -> None:
        """Rebuild the checker from ``sealed``, refusing rollbacks.

        Protocols without trusted components keep their safety-critical
        certificates (high/locked QCs) on stable storage instead, so for
        them recovery restores nothing here.
        """
        if self.checker is None:
            return
        if sealed is None:
            raise TEERefusal("recover: host provided no sealed checker state")
        fresh = self._make_checker()
        self.seal_manager.unseal_into(fresh, sealed)
        self.checker = fresh
        # The checker's step is the trustworthy record of how far this
        # node got; rejoin no earlier than that view.
        self.view = max(self.view, self.checker.step.view)

    def _make_checker(self) -> Checker:
        """A fresh instance of the declared checker flavour."""
        if self.CHECKER is None:
            raise NotImplementedError(f"{type(self).__name__} declares no checker")
        return self.CHECKER(
            self.pid, self.scheme, self.directory, self.store.genesis.hash, self.quorum
        )

    def reset_volatile_state(self) -> None:
        """Drop everything a crash loses: buffers, fetches, the pool, vote state."""
        self._buffered.clear()
        self._buffered_count = 0
        self._pending_exec.clear()
        self._requested_blocks.clear()
        self._sync_served_at.clear()
        self._sync_cursor.clear()
        self._sync_buffer.clear()
        self._peer_view_claims.clear()
        self._last_new_view = None
        self._resent_in_view.clear()
        self._awaiting_block.clear()
        self._last_commit_qc = None
        self.catchup.reset()
        self.mempool.lose_memory()
        self.reset_protocol_state()

    def reset_protocol_state(self) -> None:
        """Drop the declared per-view state (a crash loses vote aggregation)."""
        # Whatever keeps a restart safe lives elsewhere: certificates such
        # as prepare_qc/locked_qc on stable storage, the checker's step
        # and prepared block in its sealed state.
        for name in self.COLLECTORS:
            setattr(self, name, QuorumCollector(self.quorum))
        for name in self.VIEW_SETS:
            setattr(self, name, set())

    # -- view lifecycle ---------------------------------------------------------

    def _new_view_action(self) -> None:
        """What entering ``self.view`` takes; protocols implement."""
        # Basic protocols report their latest prepared block to the view's
        # leader, chained leaders propose.
        raise NotImplementedError

    def start(self) -> None:
        self.pacemaker.start_view(self.view)
        if self.view > 1:
            # A process respawned from its durable seal: a restart too.
            self._announce_view()
        self._new_view_action()

    def _announce_view(self) -> None:
        """Tell every peer which view this replica came back in."""
        # A Checker replica whose step is already past (view, nv_p) has no
        # new-view to send, and the chained pair take no rejoin action at
        # all: this is what peers hear first, and the ones views ahead
        # answer it (:meth:`_resend_new_view`).
        self.broadcast_charged(ViewAnnounce(self.view), include_self=False)
        if self.config.checkpoint_interval > 0:
            # Over TCP the frames peers queued while this replica was down
            # arrive first and in order: each lifts the corroborated view
            # by less than ``CATCHUP_VIEW_GAP``, so following them would
            # never open the transfer that the blocks peers compacted
            # call for.  No jump fires while the round runs.
            self.catchup.start()

    def on_view_entered(self, view: int) -> None:
        """Runs when a view starts, *before* buffered messages replay."""
        # The order matters to the checker-bearing protocols: the new-view
        # action consumes the checker's (v, nv_p) step, so a leader can
        # never reach TEEprepare with that step still pending - the
        # prepare commitment would be stamped with the new-view phase and
        # no backup would accept it.
        self._new_view_action()

    def on_recovered(self) -> None:
        """Rejoin: announce the latest prepared block so leaders count us again."""
        self._new_view_action()

    def _send_new_view(self, leader: int, msg: Any) -> None:
        """Send a new-view message to ``leader``, and keep it for re-sending."""
        self._last_new_view = msg
        self.send_charged(leader, msg)

    def _handle_view_announce(self, sender: int, msg: ViewAnnounce) -> None:
        """A restarted peer's view: a claim if ahead of ours, answered if behind."""
        if msg.view > self.view:
            self._note_view_claim(sender, msg.view)
        elif self.view - msg.view >= RESYNC_VIEW_GAP:
            self._resend_new_view(sender)

    def _resend_new_view(self, peer: int) -> None:
        """Answer an announcement from views ago with the last new-view we sent.

        ``peer`` missed the views in between.  The stored frame is a view
        claim towards the f+1 that let it jump here, and - when ``peer``
        leads this view - the very input its proposal is waiting for.
        Once per peer per own view: a flood of announcements buys one
        reply.  Only the announcement is answered, not stale traffic at
        large: across world regions a slow replica's votes routinely land
        views late at a leader that has lost nothing.
        """
        msg = self._last_new_view
        if msg is None or peer == self.pid or peer not in self.replica_pids:
            return
        if self._resent_in_view.get(peer) == self.view:
            return
        self._resent_in_view[peer] = self.view
        self.send_charged(peer, msg)

    # -- CPU cost charging -------------------------------------------------------

    def charge_sign(self, count: int = 1) -> None:
        self.charge(count * self.costs.sign_ms)

    def charge_verify(self, count: int = 1) -> None:
        self.charge(self.costs.verify_many_ms(count))

    def charge_tee(self, signs: int = 1, verifies: int = 0) -> None:
        self.charge(self.costs.tee_op_ms(signs=signs, verifies=verifies))

    def charge_receive(self, payload: Any) -> None:
        self.charge(self.costs.receive_ms(wire_size_of(payload)))

    def send_charged(self, dest: int, payload: Any) -> None:
        """Charge serialization cost, then send."""
        size = wire_size_of(payload)
        self.charge(self.costs.send_ms(size))
        self.send(dest, payload, size)

    def broadcast_charged(self, payload: Any, include_self: bool = True) -> None:
        """Send to every replica; egress cost scales with the copy count."""
        copies = len(self.replica_pids) if include_self else len(self.replica_pids) - 1
        size = wire_size_of(payload)
        self.charge(copies * self.costs.send_ms(size))
        self.broadcast(self.replica_pids, payload, size, include_self)

    # -- helpers shared by the protocol handlers -----------------------------------

    def _new_block(self, extends: Any, view: int) -> Block:
        """A leader's block for ``view``: filled from the mempool, stored."""
        # ``extends`` is the parent's hash (the paper's createLeaf) or, for
        # the chained protocols, the justifying certificate (createChain).
        parent_hash = extends if isinstance(extends, bytes) else extends.hash
        transactions = self.mempool.take_block(self.now, self._uncommitted_keys(parent_hash))
        if isinstance(extends, bytes):
            block = create_leaf(extends, view, transactions, created_at=self.now)
        else:
            block = create_chain(extends, view, transactions, created_at=self.now)
        self.store.add(block)
        return block

    def _uncommitted_keys(self, parent_hash: bytes) -> set[tuple[int, int]]:
        """Client keys the not-yet-executed ancestors of a new block carry.

        Those transactions are already on their way to commit (the chained
        protocols' pipeline, or a decide this leader has not seen yet), so
        the new block proposes around them.  The walk runs from the parent
        down to the last executed block and gives up at a missing body or
        a view at or below the executed one - a handful of blocks at most.
        """
        keys: set[tuple[int, int]] = set()
        if not self.mempool.pending():
            return keys  # nothing a client sent is waiting: nothing to pass over
        ledger = self.ledger
        cursor = parent_hash
        while cursor != ledger.last_executed_hash:
            block = self.store.get(cursor)
            if block is None or block.view <= ledger.last_executed_view:
                break
            keys.update(block.client_keys())
            cursor = block.parent_hash
        return keys

    def _tee_sign_new_view(self, checker: Checker, view: int) -> Commitment | None:
        """``TEEsign`` until stamped ``(view, nv_p)``; ``None`` if already past it."""
        # A node that left a view mid-way has a checker sitting at an
        # intermediate step; repeatedly calling TEEsign skips those steps
        # (the intermediate commitments are unusable by construction).
        target = Step(view, Phase.NEW_VIEW)
        rule = checker.step_rule
        while checker.step.index(rule) <= target.index(rule):
            self.charge_tee(signs=1)
            phi = checker.tee_sign()
            if phi.v_prep == view and phi.phase == Phase.NEW_VIEW:
                return phi
        return None

    def _verify_tee_commitment(self, phi: Commitment, expected_sigs: int) -> bool:
        """Untrusted-side check: right size, TEE keys only, valid signatures."""
        if len(phi.sigs) != expected_sigs:
            return False
        if any(self.directory.kind_of(sig.signer) != "tee" for sig in phi.sigs):
            return False
        return phi.verify(self.scheme)

    # -- dispatch with future-view buffering ---------------------------------------

    def message_view(self, payload: Any) -> int | None:
        """The view a message belongs to; ``None`` for view-less messages."""
        view: int | None = getattr(payload, "view", None)
        if view is not None and isinstance(payload, self.NEXT_VIEW_MSGS):
            return view + 1
        return view

    def on_message(self, sender: int, payload: Any) -> None:
        if self.crashed:
            return
        service = self._service.get(type(payload))
        if service is not None:
            service(self, sender, payload)
            return
        view = self.message_view(payload)
        if view is not None:
            if view > self.view:
                self._note_view_claim(sender, view)  # may carry us to ``view``
                if view > self.view:
                    self._buffer(view, sender, payload)
                    return
            if view < self.view:
                self.on_stale(sender, payload)
                return
        self.charge_receive(payload)
        self.dispatch(sender, payload)

    def _handle_client_request(self, sender: int, request: ClientRequest) -> None:
        """Run the admission pipeline; NACK the client on rejection.

        Accepted transactions are acknowledged implicitly by the
        execution-time reply; every other verdict is returned at once so
        an open-loop client can account for drops (and retry after a
        rate-limit window) instead of waiting forever.  A request whose
        key the chain already applied gets the committed reply again, so
        a client whose first replies were lost still completes.

        ``(client_id, tx_id)`` decides what is a duplicate, so who may
        speak for a client id is checked first: a request whose two ids
        differ, or whose id is registered to another pid than the sender,
        is dropped - otherwise any peer could pre-empt an honest client's
        next key and have the real request filtered as a replay.  So is
        one that names the filler id, which is exempt from all of this.
        """
        tx = request.tx
        if request.client_id != tx.client_id or tx.client_id == SYNTHETIC_CLIENT_ID:
            return
        pid = self.client_pids.get(tx.client_id)
        if pid is not None and pid != sender:
            return
        verdict = self.mempool.admit(tx, self.now)
        if verdict is AdmissionVerdict.ACCEPTED:
            return
        if verdict is AdmissionVerdict.DUPLICATE and tx.key in self.ledger.applied:
            verdict = AdmissionVerdict.ACCEPTED
        if pid is not None:
            self._reply(pid, tx, verdict)

    def _reply(self, pid: int, tx: Transaction, verdict: AdmissionVerdict) -> None:
        self.send_charged(
            pid,
            ClientReply(
                replica=self.pid,
                client_id=tx.client_id,
                tx_id=tx.tx_id,
                executed_at=self.now,
                verdict=verdict,
            ),
        )

    def on_stale(self, sender: int, payload: Any) -> None:
        """A message from a view this replica already left: keep its block."""
        if isinstance(payload, self.STALE_BLOCK_MSGS):
            self.store.add(payload.block)

    def dispatch(self, sender: int, payload: Any) -> None:
        """Route a current-view message through the declared handler table."""
        # Commitment messages are routed by kind and handed over as the
        # bare commitment; an untabled type or kind is dropped.
        key: Any = type(payload)
        if key is CommitmentMsg:
            key, payload = payload.kind, payload.commitment
        entry = self._handlers.get(key)
        if entry is not None:
            entry[0](self, sender, payload, *entry[1])

    def _buffer(self, view: int, sender: int, payload: Any) -> None:
        if self._buffered_count >= MAX_BUFFERED_MESSAGES:
            return
        self._buffered.setdefault(view, []).append((sender, payload))
        self._buffered_count += 1

    def _note_view_claim(self, sender: int, view: int) -> None:
        """Track an *unauthenticated* future-view claim from ``sender``.

        A message's view field costs nothing to fake, so a single peer
        must never move :attr:`_highest_view_seen` (and with it the view,
        behind-detection and the health reports).  The watermark only
        advances to a view that f+1 distinct senders - at least one of
        them honest - have claimed, i.e. the (f+1)-th largest per-sender
        claim.  A correct replica is in that view or beyond, so when it
        lies :data:`RESYNC_VIEW_GAP` or more ahead this replica goes there
        at once instead of timing its way up (:meth:`_resynchronise`).
        """
        if sender == self.pid or sender not in self.replica_pids:
            # Own traffic is not a claim; non-replica senders never are.
            return
        if view <= self._peer_view_claims.get(sender, 0):
            return
        self._peer_view_claims[sender] = view
        corroborators = self.num_replicas - self.quorum + 1  # f + 1
        claims = sorted(self._peer_view_claims.values(), reverse=True)
        if len(claims) < corroborators:
            return
        corroborated = claims[corroborators - 1]
        if corroborated > self._highest_view_seen:
            self._highest_view_seen = corroborated
            self._resynchronise()

    def _resynchronise(self) -> None:
        """The watermark moved: jump, unless a state transfer will say where to."""
        self._note_possible_lag()
        if self.catchup.active:
            return
        if self._highest_view_seen - self.view >= RESYNC_VIEW_GAP:
            self.advance_view(self._highest_view_seen)

    def view_lag(self) -> int:
        """Views between this replica and the highest view it has heard of."""
        return max(0, self._highest_view_seen - self.view)

    def _note_possible_lag(self) -> None:
        """Behind-detection: (re)start catch-up when the view gap is too wide.

        Only with checkpointing on, where peers have compacted the blocks
        a jump would go on to fetch one by one; the transfer ends by
        entering the certified tip's view.  Without checkpoints there is
        nothing to transfer and the jump is the route.
        """
        if self.config.checkpoint_interval <= 0:
            return
        if self._highest_view_seen - self.view >= CATCHUP_VIEW_GAP:
            self.catchup.start()

    # -- view advancement -----------------------------------------------------------

    def advance_view(self, new_view: int) -> None:
        """Enter ``new_view``: restart the pacemaker, flush buffered traffic."""
        if new_view <= self.view:
            return
        for stale in [v for v in self._buffered if v < new_view]:
            self._buffered_count -= len(self._buffered[stale])
            del self._buffered[stale]
        # Whatever waits on a block body was dispatched in the view being
        # left; a later view that needs the same body asks for it again
        # (the request, or every reply to it, may have been lost).
        for block_hash, waiting in self._awaiting_block.items():
            self._requested_blocks.discard(block_hash)
            self._buffered_count -= len(waiting)
            for sender, payload in waiting:
                self.on_stale(sender, payload)
        self._awaiting_block.clear()
        self.view = new_view
        if new_view > self._highest_view_seen:
            self._highest_view_seen = new_view
        self.pacemaker.start_view(new_view)
        self.prune_state(new_view)
        self.on_view_entered(new_view)
        pending = self._buffered.pop(new_view, [])
        self._buffered_count -= len(pending)
        for sender, payload in pending:
            self.charge_receive(payload)
            self.dispatch(sender, payload)

    def prune_state(self, view: int) -> None:
        """Garbage-collect the declared per-view state (on every view change)."""
        horizon = view - self.PRUNE_SLACK
        for name in self.COLLECTORS:
            getattr(self, name).discard_before_view(horizon)
        for name in self.VIEW_SETS:
            discard_views_below(getattr(self, name), horizon)

    def _on_pacemaker_timeout(self, view: int) -> None:
        if self.crashed or view != self.view:
            return
        # A round that gave up is started again while the gap stays wide.
        self._note_possible_lag()
        self.on_view_timeout(view)

    def on_view_timeout(self, view: int) -> None:
        """Give up on ``view``; entering the next one runs the new-view action."""
        # Advancing one view per timeout cannot re-synchronize replicas
        # that drifted apart: at the backoff cap everyone moves at the
        # same rate, so an offset (a one-view one included, which the
        # corroboration jump leaves alone) would persist and no quorum
        # ever share a view.  A state transfer that has not delivered by
        # now (peers without a checkpoint to offer) is overtaken here.
        self.advance_view(max(view + 1, self._highest_view_seen))

    # -- execution ---------------------------------------------------------------

    def execute_block(self, block: Block, view: int) -> list[Block]:
        """Execute ``block`` (and pending ancestors); reply to clients.

        If an ancestor's body is missing (a Byzantine leader can commit a
        block without delivering it everywhere), the execution is parked
        and the missing blocks are fetched from peers.
        """
        try:
            newly = self.ledger.execute(block, self.now, view)
        except MissingBlockError:
            self._pending_exec[block.hash] = view
            self._request_missing_ancestors(block)
            return []
        for executed in newly:
            keys = executed.client_keys()
            self.mempool.purge_committed(keys)
            if keys:
                # One reply per transaction that took effect, none for a
                # copy the ledger skipped (its first application answered).
                for tx in self.ledger.applied_transactions(executed):
                    pid = self.client_pids.get(tx.client_id)
                    if pid is not None:
                        self._reply(pid, tx, AdmissionVerdict.ACCEPTED)
            self._emit(Commit(executed, view))
        if newly:
            self.last_committed_view = max(self.last_committed_view, view)
            self._maybe_checkpoint()
            if self.catchup.active:
                # Deciding a block is being level with the cluster, on the
                # word of a quorum this replica verified itself.  Whatever
                # the round still has in flight is below this height, and
                # would be re-requested for as long as consensus stays ahead.
                self.drop_sync_session()
                self.catchup.finish()
        return newly

    # -- checkpoints & state transfer -------------------------------------------

    def note_commit_qc(self, qc: Commitment) -> None:
        """Record the decide-phase quorum commitment backing an execution.

        Protocol subclasses call this just before :meth:`execute_block`;
        the checker re-verifies the commitment when certifying a
        checkpoint, so only decide certificates (quorum commitments of
        pre-commit votes) are worth keeping.
        """
        if qc.phase == Phase.PRECOMMIT:
            self._last_commit_qc = qc

    def _maybe_checkpoint(self) -> None:
        """Certify a checkpoint every ``checkpoint_interval`` commits.

        The host hands the Checker the hash-chained headers of every
        block executed since the last certified checkpoint plus the tip's
        decide QC; the Checker derives the height and folds the state
        root *inside* the TEE, signs, and monotonically stamps the
        result.  The executed-block log below the new horizon is then
        garbage-collected - catch-up peers get the certificate instead
        of a replay.
        """
        interval = self.config.checkpoint_interval
        if interval <= 0 or self.checker is None:
            return
        qc = self._last_commit_qc
        if qc is None or qc.h_prep != self.ledger.last_executed_hash:
            return
        certified = self.checker.checkpoint_height
        if self.ledger.height() - certified < interval:
            return
        suffix = self.ledger.executed_since(certified)
        if not suffix:
            return
        headers = tuple((block.hash, block.parent_hash) for block in suffix)
        self.charge_tee(signs=1, verifies=self.quorum)
        try:
            checkpoint = self.checker.tee_checkpoint(headers, qc)
        except TEERefusal:
            return
        self.latest_checkpoint = checkpoint
        self.ledger.compact(checkpoint.height)

    def _handle_sync_request(self, sender: int, msg: SyncRequest) -> None:
        """Serve a lagging peer: checkpoint first, then a bounded chunk.

        New transfer sessions are rate-limited per sender so a Byzantine
        (or merely broken) peer cannot turn state transfer into an
        amplification attack on an honest replica.  Continuations of an
        in-progress chunked transfer (the requester asking for the chunk
        after the one just served) are exempt - otherwise every round
        trip faster than the rate window would stall the transfer into
        timeout-paced retries.
        """
        if self.config.checkpoint_interval <= 0 or sender == self.pid:
            return
        continuation = self._sync_cursor.get(sender) == msg.have_height
        if not continuation:
            last = self._sync_served_at.get(sender)
            if last is not None and self.now - last < SYNC_MIN_INTERVAL_MS:
                return
            self._sync_served_at[sender] = self.now
        self._sync_cursor.pop(sender, None)
        start_height = msg.have_height
        checkpoint = self.latest_checkpoint
        if checkpoint is not None and checkpoint.height > start_height:
            self.send_charged(sender, SyncCheckpoint(checkpoint))
            start_height = checkpoint.height
        suffix = self.ledger.executed_since(start_height)
        if suffix is None:
            return  # prefix compacted away and no newer checkpoint to offer
        qc = self._last_commit_qc
        if suffix and (qc is None or qc.h_prep != suffix[-1].hash):
            # Without a decide certificate for the tip the receiver could
            # not verify the suffix; serve the certified horizon only.
            suffix = []
        chunk = suffix[:SYNC_CHUNK_BLOCKS]
        done = len(chunk) == len(suffix)
        self.send_charged(
            sender,
            SyncBlocks(
                start_height,
                tuple(chunk),
                done=done,
                tip_qc=qc if done and chunk else None,
            ),
        )
        if not done:
            self._sync_cursor[sender] = start_height + len(chunk)

    def drop_sync_session(self) -> None:
        """Discard any partially transferred (unexecuted) suffix."""
        self._sync_buffer.clear()

    def sync_have_height(self) -> int:
        """Height this replica holds counting buffered transfer blocks."""
        return self.ledger.height() + len(self._sync_buffer)

    def _handle_sync_checkpoint(self, sender: int, msg: SyncCheckpoint) -> None:
        if not self.catchup.active or sender != self.catchup.peer:
            return  # unsolicited: only the peer being synced from may reply
        checkpoint = msg.checkpoint
        if checkpoint.height <= self.ledger.height():
            return  # stale: we already hold at least this much state
        self.charge_verify(self.quorum + 1)
        try:
            verify_checkpoint(checkpoint, self.scheme, self.directory, self.quorum)
        except TEERefusal:
            return  # forged or malformed: drop it, the retry rotates peers
        self._install_checkpoint(checkpoint)

    def _install_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Adopt a verified checkpoint: fast-forward ledger and view."""
        if self.checker is not None:
            # The trusted component re-verifies and adopts the certified
            # tip, so the monotonic floor also covers installed state (a
            # stale checkpoint can never rewind it).
            self.charge_tee(signs=0, verifies=self.quorum + 1)
            try:
                self.checker.tee_install_checkpoint(checkpoint)
            except TEERefusal:
                return
        self.ledger.install_checkpoint(
            checkpoint.height, checkpoint.block_hash, checkpoint.state_root, checkpoint.view
        )
        self.latest_checkpoint = checkpoint
        self.caught_up_via_checkpoint = True
        self.last_committed_view = max(self.last_committed_view, checkpoint.view)
        self._pending_exec.clear()
        self._requested_blocks.clear()
        self._sync_buffer.clear()  # any buffered suffix predates the install
        self.catchup.note_progress()
        self.advance_view(max(self.view, checkpoint.view + 1))

    def _handle_sync_blocks(self, sender: int, msg: SyncBlocks) -> None:
        """Buffer a transfer chunk; execute once the tip QC verifies.

        Nothing a peer sends here is taken on faith: the suffix must
        hash-chain from trusted state (the last executed block or an
        installed certified checkpoint), and it is executed only when the
        final chunk carries a verified decide-phase quorum commitment for
        the suffix tip - which transitively certifies every chained block
        below it.  A forged suffix therefore never reaches execution.
        """
        if not self.catchup.active or sender != self.catchup.peer:
            return  # unsolicited: only the peer being synced from may reply
        if msg.start_height != self.sync_have_height():
            return  # out-of-order chunk; the retry timer re-requests
        prev_hash = (
            self._sync_buffer[-1].hash
            if self._sync_buffer
            else self.ledger.last_executed_hash
        )
        for block in msg.blocks:
            if block.parent_hash != prev_hash:
                self.drop_sync_session()
                return  # broken suffix: drop it, retry against another peer
            self._sync_buffer.append(block)
            prev_hash = block.hash
        if not msg.done:
            self.catchup.note_progress()
            self.catchup.request_next(sender)
            return
        if self._sync_buffer:
            self.charge_verify(self.quorum)
            try:
                if msg.tip_qc is None:
                    raise TEERefusal("sync: final chunk carries no tip certificate")
                verify_decide_qc(
                    msg.tip_qc,
                    self._sync_buffer[-1].hash,
                    self.scheme,
                    self.directory,
                    self.quorum,
                )
            except TEERefusal:
                self.drop_sync_session()
                return  # uncertified suffix: drop it, the retry rotates peers
            self.note_commit_qc(msg.tip_qc)
        applied: Block | None = None
        for block in self._sync_buffer:
            self.store.add(block)
            self.ledger.apply_synced(block, self.now)
            self.mempool.purge_committed(block.client_keys())
            self._emit(Commit(block, block.view))
            applied = block
        self._sync_buffer.clear()
        if applied is not None:
            self.last_committed_view = max(self.last_committed_view, applied.view)
        self.catchup.finish()
        if applied is not None:
            self.advance_view(max(self.view, applied.view + 1))
        # Claims heard during the round moved the watermark, not the view.
        self._resynchronise()

    # -- block synchronization -------------------------------------------------

    def _request_missing_ancestors(self, block: Block) -> None:
        """Fetch the nearest missing ancestor of ``block`` from the peers.

        One hop at a time: each response either completes the path or
        reveals the next missing ancestor, which triggers another fetch.
        """
        cursor = block.parent_hash
        while True:
            existing = self.store.get(cursor)
            if existing is None:
                self._fetch_block(cursor)
                return
            if existing.is_genesis or cursor == self.ledger.last_executed_hash:
                return
            cursor = existing.parent_hash

    def _fetch_block(self, block_hash: bytes) -> None:
        """Ask every peer for a block body, once per hash."""
        if block_hash in self._requested_blocks:
            return
        self._requested_blocks.add(block_hash)
        request = BlockRequest(block_hash)
        for pid in self.replica_pids:
            if pid != self.pid:
                self.send_charged(pid, request)

    def _await_block(self, block_hash: bytes, sender: int, payload: Any) -> None:
        """Fetch a block ``payload`` cannot be handled without; re-deliver it then."""
        # A replica that jumped views holds certificates for blocks whose
        # proposals it never saw.  Shares the future-view buffer's cap.
        if block_hash in self.store:
            # Nothing a fetch could supply: the caller's certificate names
            # this body wrongly (forged), and buys no traffic.  It also
            # means a message :meth:`_handle_block_response` re-delivers,
            # the body stored by then, never asks for the same hash twice.
            return
        if self._buffered_count >= MAX_BUFFERED_MESSAGES:
            return
        self._buffered_count += 1
        self._awaiting_block.setdefault(block_hash, []).append((sender, payload))
        self._fetch_block(block_hash)

    def _handle_block_request(self, sender: int, msg: BlockRequest) -> None:
        block = self.store.get(msg.block_hash)
        if block is not None:
            self.send_charged(sender, BlockResponse(block))

    def _handle_block_response(self, sender: int, msg: BlockResponse) -> None:
        self.store.add(msg.block)
        self._requested_blocks.discard(msg.block.hash)
        self._retry_pending_executions()
        waiting = self._awaiting_block.pop(msg.block.hash, ())
        self._buffered_count -= len(waiting)
        for peer, payload in waiting:
            self.on_message(peer, payload)

    def _retry_pending_executions(self) -> None:
        for block_hash, view in list(self._pending_exec.items()):
            block = self.store.get(block_hash)
            if block is None:
                continue
            del self._pending_exec[block_hash]
            # Re-enters execute_block: on another miss the execution is
            # parked again and the next missing ancestor gets fetched.
            self.execute_block(block, view)
