"""Replica base class: the chassis shared by all seven protocols.

Responsibilities handled here so protocol modules stay close to the
paper's pseudocode: table-driven message dispatch with future-view
buffering, view advancement, leader schedule, CPU cost charging, block
execution with client replies, crash and recovery.  View synchronisation,
block fetch and state transfer are components beside it, and idle pacing
(:mod:`~repro.protocols.idle`) a rule on every protocol's ``_propose``.

A protocol *declares* its handlers, per-view state, checker flavour and
new-view action (:class:`BaseReplica`'s class attributes), and every
class its attributes (:mod:`~repro.protocols.state`); dispatch,
construction, crash reset, pruning and the view lifecycle derive from that.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from typing import Any, Callable, ClassVar

from repro.config import SystemConfig
from repro.crypto.keys import KeyDirectory
from repro.crypto.scheme import SignatureScheme
from repro.core.chain import BlockStore
from repro.core.block import Block, create_chain, create_leaf
from repro.core.clock import Clock
from repro.core import codec
from repro.core.codec import I64, Opt, wire_size_of
from repro.core.commitment import Commitment
from repro.core.executor import Ledger, SafetyOracle
from repro.core.mempool import SYNTHETIC_CLIENT_ID, AdmissionVerdict, Transaction
from repro.mempool.pool import PriorityMempool
from repro.core.messages import ClientReply, ClientRequest, CommitmentMsg
from repro.core.monitor import ExecutionMonitor
from repro.core.phases import Phase, Step
from repro.core.rng import RngStream
from repro.errors import MissingBlockError, TEERefusal
from repro.protocols.idle import ParkedProposal, idle_rule, unpark
from repro.protocols.pacemaker import Pacemaker, round_robin_leader
from repro.protocols.state import QuorumCollector, discard_views_below, reset_volatile
from repro.protocols.sync import BlockFetch, StateTransfer, ViewSync
from repro.runtime.effects import Commit, Reply
from repro.runtime.machine import Machine
from repro.tee.accumulator import AccumulatorService, QCAccumulatorService
from repro.tee.checker import Checker
from repro.tee.checkpoint import Checkpoint, verify_checkpoint
from repro.tee.sealed import DurableState, SealManager

#: Cap on the messages a replica holds back (Byzantine flood guard).
MAX_BUFFERED_MESSAGES = 10_000


class MessageBuffer:
    """Messages held, under one cap, until their view starts (keyed by the
    view) or the block body they need arrives (keyed by its hash)."""

    def __init__(self) -> None:
        self._held: dict[int | bytes, list[tuple[int, Any]]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def keys(self) -> list[int | bytes]:
        return list(self._held)

    def hold(self, key: int | bytes, sender: int, payload: Any) -> bool:
        """Hold ``payload`` under ``key``; ``False`` when the buffer is full."""
        if self._count >= MAX_BUFFERED_MESSAGES:
            return False
        self._held.setdefault(key, []).append((sender, payload))
        self._count += 1
        return True

    def release(self, key: int | bytes) -> list[tuple[int, Any]]:
        """Whatever is held under ``key``, no longer held."""
        held = self._held.pop(key, [])
        self._count -= len(held)
        return held


def _served_by(component: str, handler: Callable[..., None]) -> Callable[..., None]:
    """A component's ``SERVICE_HANDLERS`` row, as the replica serves it."""

    @functools.wraps(handler)
    def serve(replica: "BaseReplica", sender: int, payload: Any) -> None:
        # Chassis traffic is between replicas: a client is served its
        # requests (the replica's own row) and nothing else.
        if sender in replica.replica_pids:
            handler(getattr(replica, component), sender, payload)

    return serve


@functools.cache
def durable_fields(cls: type["BaseReplica"]) -> tuple[tuple[str, str, Any], ...]:
    """``(owner, attribute, wire kind)`` of what a ``cls`` replica's record
    carries: the ``DURABLE`` declarations of the replica (owner ``""``),
    its pacemaker and its components, each merged along its MRO."""
    owners: dict[str, type] = {"": cls, "pacemaker": Pacemaker, **cls.COMPONENTS}
    fields: list[tuple[str, str, Any]] = []
    for owner, klass in owners.items():
        declared: dict[str, Any] = {}
        for base in reversed(klass.__mro__):
            declared.update(vars(base).get("DURABLE", {}))
        fields += [(owner, name, kind) for name, kind in declared.items() if kind is not None]
    return tuple(fields)


class BaseReplica(Machine):
    """Common replica machinery; protocol subclasses implement handlers.

    Replicas are sans-I/O state machines: handlers emit
    :mod:`repro.runtime.effects` (flushed to the attached runtime when the
    outermost entry point returns) and read time from an injected
    :class:`~repro.core.clock.Clock` - never from a simulator or socket.
    """

    ENTRY_POINTS = Machine.ENTRY_POINTS + ("dispatch", "advance_view", "execute_block", "submit")

    #: The replica's trusted components, if the protocol has them.
    checker: Checker | None = None
    acc_service: AccumulatorService | QCAccumulatorService | None = None

    # -- what a protocol declares ---------------------------------------------

    #: The name the registry and the command line know the protocol by.
    protocol_name: ClassVar[str] = ""
    #: The Checker flavour every replica carries (``None``: no checker); a
    #: Checker lets 2f+1 replicas do the work of 3f+1 (Section 5).
    CHECKER: ClassVar[type[Checker] | None] = None
    #: The Accumulator flavour (``None``: none); it certifies the highest
    #: prepared block a leader extends, which removes a phase (Section 6).
    ACCUMULATOR: ClassVar[type[AccumulatorService] | type[QCAccumulatorService] | None] = None
    #: Core phases the basic protocols vote on, in order; the last one's
    #: certificate decides.  Empty for the chained pair, whose single
    #: generic phase is pipelined across views.
    PHASES: ClassVar[tuple[Phase, ...]] = ()
    #: Handler table: message class - or ``(CommitmentMsg, kind)`` - to the
    #: name of the handler method, optionally with fixed extra arguments
    #: as ``(name, arg, ...)``.  Resolved once per class, so a subclass
    #: that overrides a handler by name is routed to its override.
    HANDLERS: ClassVar[dict[Any, Any]] = {}
    #: View-less traffic, served in any view and without a receive charge
    #: before the view check: client requests here, from anyone - one, or
    #: a socket host's packed frame of them, admitted in one pass - and
    #: the ``COMPONENTS``' rows, from replicas only.
    SERVICE_HANDLERS: ClassVar[dict[type, str]] = {
        ClientRequest: "_handle_client_request", codec.ClientRequests: "_admit"
    }
    #: The chassis's components by attribute; each owns its state and its
    #: ``SERVICE_HANDLERS`` rows (a subclass swaps one by naming a class).
    COMPONENTS: ClassVar[dict[str, Any]] = {
        "viewsync": ViewSync, "fetch": BlockFetch, "catchup": StateTransfer
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

    # -- what every replica holds (``repro.protocols.state``) ------------------

    VOLATILE: ClassVar[dict[str, Any]] = {
        "buffer": MessageBuffer,
        "last_commit_qc": None,  # the decide QC behind the last execution
        "mempool": PriorityMempool.lose_memory,
        "parked": None,  # the leader's proposal the idle rule holds back
    }
    # The seal manager is the platform's rollback-protected seal service
    # (the role SGX delegates to a trusted monotonic counter).
    SEALED: ClassVar[tuple[str, ...]] = ("checker", "seal_manager")
    # By wire kind, as the durable record carries them; the block store and
    # the ledger (``None``) are the exception: the checkpoint in the record,
    # then transfer or fetch, rebuild them in a respawned process.
    DURABLE: ClassVar[dict[str, Any]] = {
        "view": I64, "store": None, "ledger": None,
        "latest_checkpoint": Opt(Checkpoint), "last_committed_view": I64,
    }
    WIRING: ClassVar[tuple[str, ...]] = (
        "config", "costs", "scheme", "directory", "num_replicas", "quorum", "client_pids",
        "replica_pids", "pacemaker", "crash_count", "recovery_count",
        "caught_up_via_checkpoint", "acc_service",
        "disk",  # the simulated host's disk: the record the last crash wrote
    )
    buffer: MessageBuffer
    last_commit_qc: Commitment | None
    parked: ParkedProposal | None
    viewsync: ViewSync
    fetch: BlockFetch
    catchup: StateTransfer

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
        for attr, component in cls.COMPONENTS.items():
            for message, name in component.SERVICE_HANDLERS.items():
                cls._service[message] = _served_by(attr, getattr(component, name))
        # The proposal entry, once per class: an override (an adversary's,
        # or a mixin's) is wrapped where it first reaches a replica class.
        propose = getattr(cls, "_propose", None)
        if propose is not None and not getattr(propose, "idle_rule", False):
            setattr(cls, "_propose", idle_rule(propose))  # noqa: B010 - no static type

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
        self.seal_manager = SealManager()
        self.disk = b""
        self.crash_count = 0
        self.recovery_count = 0
        # What this replica serves and what the durable layer persists.
        self.latest_checkpoint: Checkpoint | None = None
        self.caught_up_via_checkpoint = False
        self.last_committed_view = 0
        for attr, component in self.COMPONENTS.items():
            setattr(self, attr, component(self))
        reset_volatile(self)
        if self.CHECKER is not None:
            self.checker = self._make_checker()
        if self.ACCUMULATOR is not None:
            self.acc_service = self.ACCUMULATOR(self.pid, scheme, directory, quorum)

    # -- leader schedule -------------------------------------------------------

    def leader_of(self, view: int) -> int:
        """Pid of the deterministic leader of ``view``."""
        return self.replica_pids[round_robin_leader(view, self.num_replicas)]

    def is_leader(self, view: int) -> bool:
        return self.leader_of(view) == self.pid

    # -- crash / recovery ------------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: write the durable record to the host's disk, lose
        every ``VOLATILE`` attribute, go silent."""
        if self.crashed:
            return
        self.disk = self.durable_record()
        super().crash()
        self.crash_count += 1
        components = [getattr(self, attr) for attr in self.COMPONENTS]
        for owner in (self, self.pacemaker, *components):
            reset_volatile(owner)

    def recover(self) -> None:
        """Restart from the record on the host's disk and rejoin.

        A record :meth:`restore` refuses (a host that put an older one
        back, say) raises :class:`~repro.errors.TEERefusal` and leaves the
        replica crashed.  On success it rejoins at its pacemaker's view and
        tells every peer where it is (:meth:`ViewSync.announce`).
        """
        if not self.crashed:
            return
        self.restore(self.disk)
        super().recover()
        self.recovery_count += 1
        self.pacemaker.start_view(self.view)
        self.viewsync.announce()
        self.on_recovered()

    def durable_payload(self) -> bytes:
        """The ``DURABLE`` attributes of the replica, its pacemaker and its
        components, in :func:`durable_fields` order."""
        fields = durable_fields(type(self))
        return codec.encode_fields(
            [kind for _, _, kind in fields],
            [getattr(getattr(self, owner) if owner else self, name) for owner, name, _ in fields],
        )

    def durable_record(self) -> bytes:
        """What a host keeps across a restart: one :class:`DurableState`
        record of :meth:`durable_payload` and the sealed checker."""
        sealed = None if self.checker is None else self.seal_manager.seal(self.checker)
        return codec.encode_record(DurableState(self.durable_payload(), sealed))

    def restore(self, record: bytes) -> None:
        """Put back what a :meth:`durable_record` kept.

        Refuses, with :class:`~repro.errors.TEERefusal` and nothing
        assigned, a record that does not decode, that lacks or rolls back
        the sealed checker, or whose checkpoint is forged or below the
        checker's certified height.  A ledger short of the checkpoint (a
        respawned process) is fast-forwarded to it.
        """
        fields = durable_fields(type(self))
        try:
            state = codec.decode_record(DurableState, record)
            values = codec.decode_fields([kind for _, _, kind in fields], state.payload)
        except codec.CodecError as exc:
            raise TEERefusal(f"restore: the durable record does not decode: {exc}") from exc
        durable = {(owner, name): value for (owner, name, _), value in zip(fields, values)}
        checker: Checker | None = None
        if self.CHECKER is not None:
            if state.sealed is None:
                raise TEERefusal("restore: the record holds no sealed checker state")
            checker = self._make_checker()
            self.seal_manager.unseal_into(checker, state.sealed)  # refuses rollback
        checkpoint: Checkpoint | None = durable["", "latest_checkpoint"]
        if checkpoint is not None:
            verify_checkpoint(checkpoint, self.scheme, self.directory, self.quorum)
            if checker is not None and checkpoint.height < checker.checkpoint_height:
                raise TEERefusal(
                    f"restore: checkpoint rolled back (height {checkpoint.height} < "
                    f"certified {checker.checkpoint_height})"
                )
        for (owner, name), value in durable.items():
            setattr(getattr(self, owner) if owner else self, name, value)
        if checker is not None:
            self.checker = checker
            # The checker's step is the trustworthy record of how far this
            # node got; rejoin no earlier than that view.
            self.view = max(self.view, checker.step.view)
        if checkpoint is not None and checkpoint.height > self.ledger.height():
            self.view = self.catchup.adopt_checkpoint(checkpoint)

    def _make_checker(self) -> Checker:
        """A fresh instance of the declared checker flavour."""
        if self.CHECKER is None:
            raise NotImplementedError(f"{type(self).__name__} declares no checker")
        return self.CHECKER(
            self.pid, self.scheme, self.directory, self.store.genesis.hash, self.quorum
        )

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
            self.viewsync.announce()
        self._new_view_action()

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
                self.viewsync.note_claim(sender, view)  # may carry us to ``view``
                if view > self.view:
                    self.buffer.hold(view, sender, payload)
                    return
            if view < self.view:
                self.on_stale(sender, payload)
                return
        self.charge_receive(payload)
        self.dispatch(sender, payload)

    def _handle_client_request(self, sender: int, request: ClientRequest) -> None:
        """One request: the one-row case of :meth:`_admit`."""
        self._admit(sender, (request,))

    def _admit(self, sender: int, requests: Iterable[ClientRequest]) -> None:
        """Run the admission pipeline on ``requests``, in order, at one
        instant; NACK the client on rejection.

        Accepted transactions are acknowledged implicitly by the
        execution-time reply; every other verdict is returned at once so
        an open-loop client can account for drops (and retry after a
        rate-limit window) instead of waiting forever.  A request whose
        key the chain already applied gets the committed reply again, so
        a client whose first replies were lost still completes.  The
        NACKs leave in row order, stamped with the admission instant, and
        a parked proposal is woken once, after the last row.

        ``(client_id, tx_id)`` decides what is a duplicate, so who may
        speak for a client id is checked first: a request whose two ids
        differ, or whose id is registered to another pid than the sender,
        is dropped - otherwise any peer could pre-empt an honest client's
        next key and have the real request filtered as a replay.  So is
        one that names the filler id, which is exempt from all of this.
        """
        now = self.now
        admit, client_pids = self.mempool.admit, self.client_pids
        accepted = False
        nacks: list[tuple[int, ClientReply]] = []
        for request in requests:
            tx = request.tx
            client_id = tx.client_id
            if request.client_id != client_id or client_id == SYNTHETIC_CLIENT_ID:
                continue
            pid = client_pids.get(client_id)
            if pid is not None and pid != sender:
                continue
            verdict = admit(tx, now)
            if verdict is AdmissionVerdict.ACCEPTED:
                accepted = True
                continue
            if verdict is AdmissionVerdict.DUPLICATE and tx.key in self.ledger.applied:
                verdict = AdmissionVerdict.ACCEPTED
            if pid is not None:
                # Positional: a tuple record's keyword form costs twice as much.
                nacks.append((pid, ClientReply(self.pid, client_id, tx.tx_id, now, verdict)))
        if accepted and self.parked is not None:
            self.parked.wake()
        if nacks:
            self._reply(nacks)

    def submit(self, tx: Transaction) -> None:
        """Queue an in-process command (an application's), without admission
        control; like an accepted request, it wakes a parked proposal."""
        self.mempool.add(tx)
        if self.parked is not None and self.mempool.pending():
            self.parked.wake()

    def _reply(self, sends: list[tuple[int, ClientReply]]) -> None:
        """Answer clients, ``(pid, reply)`` in order, as one :class:`Reply`
        effect; each reply is charged like a :meth:`send_charged`."""
        size = wire_size_of(sends[0][1])  # every ClientReply is one size
        cost = self.costs.send_ms(size)
        if cost > 0:
            for _ in sends:
                self.cpu_time_charged += cost
        if not self.crashed:
            self._emit(Reply(sends, cost, size))

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

    # -- view advancement -----------------------------------------------------------

    def advance_view(self, new_view: int) -> None:
        """Enter ``new_view``: restart the pacemaker, flush buffered traffic."""
        if new_view <= self.view:
            return
        unpark(self)
        buffer = self.buffer
        for key in buffer.keys():
            if isinstance(key, bytes):
                # Waiting on a body since the view being left: a later view
                # that needs the same body asks for it again (the request,
                # or every reply to it, may have been lost).
                self.fetch.forget(key)
                for sender, payload in buffer.release(key):
                    self.on_stale(sender, payload)
            elif key < new_view:
                buffer.release(key)
        self.view = new_view
        self.pacemaker.start_view(new_view)
        self.prune_state(new_view)
        self.on_view_entered(new_view)
        for sender, payload in buffer.release(new_view):
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
        self.viewsync.note_possible_lag()
        self.on_view_timeout(view)

    def on_view_timeout(self, view: int) -> None:
        """Give up on ``view``; entering the next one runs the new-view action."""
        # One view per timeout never re-synchronizes drifted replicas: at
        # the backoff cap an offset (a one-view one included, which the
        # jump leaves alone) would persist.  A state transfer that has not
        # delivered by now is overtaken here.
        self.advance_view(max(view + 1, self.viewsync.highest_view_seen))

    # -- execution ---------------------------------------------------------------

    def execute_block(self, block: Block, view: int) -> list[Block]:
        """Execute ``block`` (and pending ancestors); reply to clients.

        If an ancestor's body is missing (a Byzantine leader can commit a
        block without delivering it everywhere), the execution is parked
        and the missing blocks are fetched from peers.  The clock is read
        once: every reply to the blocks executed here carries the same
        commit timestamp, the ledger's.  Each executed block's replies are
        one :class:`Reply` effect.
        """
        now = self.now
        try:
            newly = self.ledger.execute(block, now, view)
        except MissingBlockError:
            self.fetch.park_execution(block, view)
            return []
        for executed in newly:
            keys = executed.client_keys()
            self.mempool.purge_committed(keys)
            applied = self.ledger.applied_transactions(executed)
            if keys:
                # One reply per transaction that took effect, none for a
                # copy the ledger skipped (its first application answered),
                # read off the column's key fields: no Transaction is built.
                me, pid_of, accepted = self.pid, self.client_pids.get, AdmissionVerdict.ACCEPTED
                replies = [
                    (pid, ClientReply(me, client_id, tx_id, now, accepted))
                    for client_id, tx_id in applied.client_keys()
                    if (pid := pid_of(client_id)) is not None
                ]
                if replies:
                    self._reply(replies)
            self._emit(Commit(executed, view, len(applied)))
        if newly:
            self.last_committed_view = max(self.last_committed_view, view)
            self._maybe_checkpoint()
            if self.catchup.active:
                # Deciding a block is being level with the cluster, on a
                # quorum's word; what the round has in flight is below it.
                self.catchup.finish()
        return newly

    # -- checkpoints -----------------------------------------------------------

    def note_commit_qc(self, qc: Commitment) -> None:
        """Record the decide-phase quorum commitment backing an execution.

        Protocols call this just before :meth:`execute_block`; only decide
        certificates (pre-commit quorums) can certify a checkpoint.
        """
        if qc.phase == Phase.PRECOMMIT:
            self.last_commit_qc = qc

    def _maybe_checkpoint(self) -> None:
        """Certify a checkpoint every ``checkpoint_interval`` commits.

        The Checker gets the hash-chained headers executed since the last
        checkpoint plus the tip's decide QC, derives height and state root
        *inside* the TEE and stamps the result monotonically; the log below
        the new horizon is then garbage-collected.
        """
        interval = self.config.checkpoint_interval
        if interval <= 0 or self.checker is None:
            return
        qc = self.last_commit_qc
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
