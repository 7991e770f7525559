"""Real-network runtime: protocol machines on asyncio TCP sockets.

The same sans-I/O machines the simulator hosts (``repro.runtime.sim``)
run here unchanged against real sockets and wall-clock timers:

* :class:`WallClock` satisfies :class:`repro.core.clock.Clock` with
  monotonic milliseconds.
* :class:`AsyncioRuntime` is one machine's seat on an event loop.  It
  interprets effect lists onto per-peer outbound queues (length-prefixed
  frames over :mod:`repro.core.codec`, see :mod:`repro.runtime.framing`)
  and ``loop.call_later`` timers.  A payload is encoded once per effect
  list however many peers it goes to, and each peer's sender writes what
  is queued for it in one go (up to the stream's high-water mark).
  ``ChargeCpu`` is a no-op - real CPUs charge themselves.
* :func:`run_local_cluster` boots an n-replica localhost deployment
  (two-phase: bind every server on an ephemeral port, then exchange the
  real addresses) and reports committed throughput - the backing of the
  ``repro net-bench`` CLI and the cross-runtime equivalence test.
* :func:`serve_replica` runs a single replica on a fixed port for
  multi-process deployments (``repro serve``).

Resilience hooks (all optional, see :mod:`repro.runtime.resilience`):

* a :class:`~repro.runtime.resilience.transport.FaultDecider` sits on
  the sending side of every peer link, applying the cluster's
  :class:`~repro.core.faults.FaultPlan` to real frames (drop, duplicate,
  delay) with seeded-deterministic decisions;
* a :class:`~repro.runtime.resilience.durable.DurableSealer` persists
  sealed checker state before any frame leaves the host, so a SIGKILLed
  process restarts without ever being able to re-sign a lower step;
* the runtime's appetite is bounded: per-peer outbound queues of
  :data:`MAX_OUTBOUND_QUEUE` frames that shed their oldest frame (and
  count it) when full, and a :data:`~repro.runtime.framing.MAX_FRAME_BYTES`
  guard that disconnects instead of buffering.

Outbound connections are lazy with exponential reconnect backoff; each
starts with a hello frame naming the sender pid so the acceptor can
attribute inbound messages before parsing any consensus payload.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import SystemConfig
from repro.core.codec import CodecError, decode_message, encode_message
from repro.core.rng import RngStream
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.errors import ConfigError, TEERefusal
from repro.protocols.registry import ProtocolSpec, get_spec
from repro.protocols.replica import BaseReplica
from repro.runtime.effects import (
    Broadcast,
    CancelTimer,
    ChargeCpu,
    Commit,
    Effect,
    Send,
    SetTimer,
)
from repro.runtime.framing import (
    FrameDecoder,
    FramingError,
    decode_hello,
    encode_frame,
    encode_hello,
)
from repro.runtime.machine import Machine
from repro.runtime.resilience.durable import DurableSealer
from repro.runtime.resilience.transport import FaultDecider
from repro.runtime.resilience.watchdog import LivenessWatchdog
from repro.tee.sealed import FileSealStore

_LOG = logging.getLogger("repro.net")

#: Reconnect backoff for outbound peer connections: doubling from the
#: initial sleep to the ceiling (seconds), each sleep perturbed by +/-
#: this fraction of seeded jitter so a herd of reconnecting peers
#: decorrelates deterministically.
RECONNECT_INITIAL_S = 0.05
RECONNECT_MAX_S = 1.0
RECONNECT_JITTER = 0.25

_RECV_CHUNK = 64 * 1024

#: Frames queued per peer before the oldest is shed for the newest.
MAX_OUTBOUND_QUEUE = 10_000


class WallClock:
    """Monotonic wall-clock milliseconds, zeroed at construction."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0


class _Outbox:
    """Frames queued for one peer, and the flag its sender sleeps on."""

    __slots__ = ("frames", "wake")

    def __init__(self) -> None:
        self.frames: collections.deque[bytes] = collections.deque()
        self.wake = asyncio.Event()


class AsyncioRuntime:
    """One machine's seat on an asyncio event loop: server, peers, timers."""

    def __init__(
        self,
        machine: Machine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_decider: FaultDecider | None = None,
        sealer: DurableSealer | None = None,
    ) -> None:
        self.machine = machine
        machine.runtime = self
        self.host = host
        self.port = port  # replaced by the bound port after start_server()
        self.fault_decider = fault_decider
        self.sealer = sealer
        self.peers: dict[int, tuple[str, int]] = {}
        self._server: asyncio.Server | None = None
        self._queues: dict[int, _Outbox] = {}
        self._sender_tasks: dict[int, asyncio.Task[None]] = {}
        self._reader_tasks: set[asyncio.Task[None]] = set()
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._delayed: set[asyncio.TimerHandle] = set()
        self._closed = False
        self._machine_started = False
        # Seeded jitter for reconnect backoff: deterministic per
        # (seed, src, dst), so backoff schedules never share phase
        # across links yet stay reproducible (DET-lint clean).
        self._reconnect_rng: dict[int, RngStream] = {}
        # Transport-level counters for net-bench / health reporting.
        self.sent_messages = 0
        self.sent_bytes = 0
        self.dropped_messages = 0  # outbound queue overflow
        self.rejected_connections = 0  # malformed hello / framing violations
        self.committed_blocks = 0
        self.committed_txs = 0
        self.commit_event = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start_server(self) -> tuple[str, int]:
        """Bind the listening socket; returns the (host, port) peers dial."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    def set_peers(self, peers: dict[int, tuple[str, int]]) -> None:
        """Install the pid -> (host, port) address book (excluding self)."""
        self.peers = {pid: addr for pid, addr in peers.items() if pid != self.machine.pid}

    def start_machine(self) -> None:
        self._machine_started = True
        self.machine.start()

    async def close(self) -> None:
        """Tear down timers, sender tasks, inbound readers and the server.

        Every sender aborts its transport and awaits ``wait_closed`` (bytes
        the transport still holds are dropped like the frames still queued:
        a stalled peer must not be able to hold ``close()`` up), and every
        reader closes its transport, so a completed ``close()`` leaves no
        pending tasks and no open sockets behind (asserted by the shutdown
        tests).
        """
        self._closed = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        for handle in self._delayed:
            handle.cancel()
        self._delayed.clear()
        # Detach all shared teardown state *before* the first await: a
        # concurrent or re-entrant close() then finds nothing left to
        # tear down, and a reader task registered during the gather can
        # never be orphaned by a stale clear() afterwards.
        tasks = list(self._sender_tasks.values()) + list(self._reader_tasks)
        self._sender_tasks.clear()
        self._reader_tasks.clear()
        server, self._server = self._server, None
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if server is not None:
            server.close()
            await server.wait_closed()

    # -- Runtime interface -------------------------------------------------

    def execute(self, effects: list[Effect]) -> None:
        # Durability before visibility: persist the checker's advanced
        # (view, phase) step before any frame that depends on it can be
        # queued, so a SIGKILL at any later instant leaves a seal at
        # least as high as every signature the cluster may have seen.
        if self.sealer is not None:
            self.sealer.maybe_seal()
        # One encoding per payload *object* per flush: a broadcast, or a
        # client's back-to-back sends of one request, frames it once.  The
        # effects keep every payload alive until the loop ends, so an id
        # cannot be reused for another object in the meantime.
        frames: dict[int, bytes] = {}
        for effect in effects:
            if type(effect) is Send:
                self._send(effect.dest, effect.payload, frames)
            elif type(effect) is Broadcast:
                dests = list(effect.dests)
                if effect.include_self and self.machine.pid not in dests:
                    dests.append(self.machine.pid)
                for dest in dests:
                    self._send(dest, effect.payload, frames)
            elif type(effect) is SetTimer:
                self._arm_timer(effect.timer_id, effect.delay_ms)
            elif type(effect) is CancelTimer:
                handle = self._timers.pop(effect.timer_id, None)
                if handle is not None:
                    handle.cancel()
            elif type(effect) is Commit:
                self.committed_blocks += 1
                self.committed_txs += effect.block.num_transactions()
                self.commit_event.set()
            # ChargeCpu models simulated CPU occupancy; real CPUs charge
            # themselves, so it needs no interpretation here.

    def machine_recovered(self) -> None:
        """No CPU model to reset on a real host."""

    # -- sending -----------------------------------------------------------

    def _send(self, dest: int, payload: object, frames: dict[int, bytes]) -> None:
        if self._closed:
            return
        if dest == self.machine.pid:
            # Self-delivery skips the codec, mirroring the simulator's
            # in-memory self loop; call_soon keeps the handler re-entrant
            # safe (never invoked inside another handler's flush).
            asyncio.get_running_loop().call_soon(self._deliver_self, payload)
            return
        if dest not in self.peers:
            return
        copies = 1
        delay_ms = 0.0
        if self.fault_decider is not None:
            action = self.fault_decider.decide(
                self.machine.pid, dest, payload, self.machine.clock.now
            )
            if action is not None:
                if action.drop:
                    return
                copies += action.duplicates
                delay_ms = action.extra_delay_ms
        memo = id(payload)
        frame = frames.get(memo)
        if frame is None:
            frame = frames[memo] = encode_frame(encode_message(payload))
        for _ in range(copies):
            if delay_ms > 0.0:
                self._enqueue_later(dest, frame, delay_ms)
            else:
                self._enqueue(dest, frame)

    def _deliver_self(self, payload: object) -> None:
        if not self._closed:
            self.machine.on_message(self.machine.pid, payload)

    def _enqueue(self, dest: int, frame: bytes) -> None:
        if self._closed:
            return
        outbox = self._queues.get(dest)
        if outbox is None:
            outbox = self._queues[dest] = _Outbox()
            self._sender_tasks[dest] = asyncio.get_running_loop().create_task(
                self._sender_loop(dest, outbox)
            )
        if len(outbox.frames) >= MAX_OUTBOUND_QUEUE:
            self.dropped_messages += 1
            # Sacrifice the stalest frame for the fresh one.  Old consensus
            # messages are the most likely to be obsolete (their view has
            # moved on), so this keeps recovery traffic - new-views, fresh
            # votes - flowing to a slow peer.
            outbox.frames.popleft()
        outbox.frames.append(frame)
        outbox.wake.set()
        self.sent_messages += 1
        self.sent_bytes += len(frame)

    def _enqueue_later(self, dest: int, frame: bytes, delay_ms: float) -> None:
        handle_box: list[asyncio.TimerHandle] = []

        def deliver() -> None:
            if handle_box:
                self._delayed.discard(handle_box[0])
            self._enqueue(dest, frame)

        handle = asyncio.get_running_loop().call_later(delay_ms / 1000.0, deliver)
        handle_box.append(handle)
        self._delayed.add(handle)

    def _backoff_jitter(self, dest: int, backoff: float) -> float:
        rng = self._reconnect_rng.get(dest)
        if rng is None:
            # Client machines carry no SystemConfig; their backoff
            # streams derive from seed 0 (still per-link deterministic).
            config = getattr(self.machine, "config", None)
            rng = RngStream(
                getattr(config, "seed", 0),
                f"reconnect:{self.machine.pid}->{dest}",
            )
            self._reconnect_rng[dest] = rng
        return rng.jitter(backoff, RECONNECT_JITTER)

    async def _sender_loop(self, dest: int, outbox: _Outbox) -> None:
        """Drain ``outbox`` to ``dest``, reconnecting with jittered backoff.

        What is queued by the time the sender wakes goes out in one
        ``write``: a handler's whole fan-out to this peer costs one trip
        through the stream and the socket, not one per frame.  One write
        stops at the stream's high-water mark, so behind a slow peer the
        backlog waits in the outbox, where the oldest frames can still be
        shed, and not in the transport, where they cannot.
        """
        backoff = RECONNECT_INITIAL_S
        while not self._closed:
            try:
                host, port = self.peers[dest]
                _reader, writer = await asyncio.open_connection(host, port)
            except (OSError, KeyError):
                await asyncio.sleep(self._backoff_jitter(dest, backoff))
                backoff = min(backoff * 2, RECONNECT_MAX_S)
                continue
            backoff = RECONNECT_INITIAL_S
            try:
                writer.write(encode_hello(self.machine.pid))
                await writer.drain()
                _low, high_water = writer.transport.get_write_buffer_limits()
                frames = outbox.frames
                while True:
                    if not frames:
                        outbox.wake.clear()
                        await outbox.wake.wait()
                    batch = [frames.popleft()]
                    size = len(batch[0])
                    while frames and size < high_water:
                        batch.append(frames.popleft())
                        size += len(batch[-1])
                    writer.write(b"".join(batch))
                    await writer.drain()
            except (OSError, ConnectionError):
                # Frames written into the dead socket are lost; consensus
                # tolerates that (the next view change resynchronises).
                pass
            finally:
                if self._closed:
                    # A graceful close waits for the transport to flush, and
                    # behind a peer that stopped reading that is for ever.
                    writer.transport.abort()
                else:
                    writer.close()
                with contextlib.suppress(Exception, asyncio.CancelledError):
                    await writer.wait_closed()

    # -- receiving ---------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is None:  # pragma: no cover - handlers always run on the loop
            raise RuntimeError("connection handler invoked outside the event loop")
        self._reader_tasks.add(task)
        sender: int | None = None
        decoder = FrameDecoder()
        try:
            while not self._closed:
                data = await reader.read(_RECV_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    if sender is None:
                        sender = decode_hello(frame)
                        continue
                    if not self._machine_started:
                        # The process is up (socket bound) but the machine
                        # has not been started yet - a deliberately held-
                        # back replica.  Dropping mirrors a dark process:
                        # consensus retransmits cover the loss.
                        self.dropped_messages += 1
                        continue
                    payload = decode_message(frame)
                    self.machine.on_message(sender, payload)
        except (FramingError, CodecError) as exc:
            # Malformed peer stream: disconnect, never buffer or guess.
            self.rejected_connections += 1
            peer = writer.get_extra_info("peername")
            _LOG.warning(
                "replica %d: rejecting connection from %s (claimed pid %s): %s",
                self.machine.pid,
                peer,
                sender,
                exc,
            )
        except (OSError, ConnectionError, asyncio.CancelledError):  # noqa: S110 - peer loss is the normal end of a reader; the reconnect loop owns recovery
            pass
        finally:
            self._reader_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    # -- timers ------------------------------------------------------------

    def _arm_timer(self, timer_id: int, delay_ms: float) -> None:
        def fire() -> None:
            self._timers.pop(timer_id, None)
            if not self._closed:
                self.machine.on_timer(timer_id)

        self._timers[timer_id] = asyncio.get_running_loop().call_later(
            max(delay_ms, 0.0) / 1000.0, fire
        )


# -- cluster construction ---------------------------------------------------


def _sized_quorum(spec: ProtocolSpec, n: int) -> tuple[int, int]:
    """(f, quorum) for an ``n``-replica deployment of ``spec``.

    ``n`` need not sit exactly on the protocol's N(f) line; extra
    replicas above N(f) enlarge the quorum so the intersection argument
    still holds.
    """
    f = spec.max_faults(n)
    if f < 1:
        raise ConfigError(f"{spec.name} needs more than {n} replicas to tolerate a fault")
    return f, spec.quorum(f) + (n - spec.num_replicas(f))


def build_machine(
    protocol: str,
    pid: int,
    n: int,
    clock: WallClock,
    *,
    seed: int = 1,
    payload_bytes: int = 128,
    block_size: int = 32,
    timeout_ms: float = 2_000.0,
    checkpoint_interval: int = 0,
    client_pids: dict[int, int] | None = None,
    config_overrides: dict[str, object] | None = None,
    replica_class: type | None = None,
) -> BaseReplica:
    """Construct one protocol machine for an ``n``-replica TCP deployment.

    Every replica of a deployment must be built with the same arguments:
    the HMAC scheme is keyed off ``seed`` and quorum sizing off ``n``.

    ``client_pids`` maps client ids to their transport pids (for
    closed-loop deployments driven by ``repro load``), and
    ``config_overrides`` merges extra :class:`SystemConfig` fields -
    the ingest-pipeline knobs - into the derived configuration.
    ``replica_class`` substitutes another machine class (a registered
    adversary from :mod:`repro.adversary.registry`) for the protocol's
    honest one - same constructor signature, sans-I/O, so attacks run
    unchanged over real sockets.
    """
    spec = get_spec(protocol)
    f, quorum = _sized_quorum(spec, n)
    kwargs: dict[str, object] = dict(
        protocol=protocol,
        f=f,
        seed=seed,
        payload_bytes=payload_bytes,
        block_size=block_size,
        timeout_ms=timeout_ms,
        open_loop=True,
        checkpoint_interval=checkpoint_interval,
    )
    if config_overrides:
        kwargs.update(config_overrides)
    config = SystemConfig(**kwargs)  # type: ignore[arg-type]
    scheme = HmacScheme(secret=f"system-{seed}".encode())
    directory = KeyDirectory(scheme)
    # Unlike the simulator, each process holds its own directory, so the
    # peers' trusted-component identities must be registered here too
    # (each replica's own TEE self-registers during construction).
    for peer in range(n):
        directory.register_replica(peer)
        directory.register_tee(peer)
    cls = replica_class if replica_class is not None else spec.replica_class
    replica = cls(
        pid, clock, config, scheme, directory, n, quorum,
        client_pids=dict(client_pids or {}),
    )
    replica.replica_pids = list(range(n))
    return replica


@dataclass
class ClusterReport:
    """Outcome of one :func:`run_local_cluster` run."""

    protocol: str
    num_replicas: int
    f: int
    quorum: int
    elapsed_s: float
    committed_blocks: int  # at the slowest replica
    committed_txs: int  # at the slowest replica
    messages_sent: int
    bytes_sent: int
    dropped_messages: int
    #: Per-replica executed block-hash chains (for equivalence checks).
    chains: dict[int, list[str]] = field(default_factory=dict)
    #: Per-replica rolling execution state roots (cross-runtime digests).
    state_roots: dict[int, str] = field(default_factory=dict)
    #: Per-replica ledger heights (checkpoint base + executed suffix).
    heights: dict[int, int] = field(default_factory=dict)
    #: Per-replica compaction horizons and the state roots at them, so a
    #: caller can recompute the rolling root at any retained height.
    base_heights: dict[int, int] = field(default_factory=dict)
    base_roots: dict[int, str] = field(default_factory=dict)
    #: Pids that rejoined by installing a peer's certified checkpoint.
    caught_up_pids: tuple[int, ...] = ()

    @property
    def tx_per_s(self) -> float:
        return self.committed_txs / self.elapsed_s if self.elapsed_s > 0 else 0.0


async def run_local_cluster(
    protocol: str,
    n: int,
    *,
    seed: int = 1,
    duration_s: float = 5.0,
    target_blocks: int = 0,
    payload_bytes: int = 128,
    block_size: int = 32,
    timeout_ms: float = 2_000.0,
    max_timeout_ms: float = 0.0,
    timeout_jitter: float = 0.0,
    host: str = "127.0.0.1",
    checkpoint_interval: int = 0,
    start_delay_s: dict[int, float] | None = None,
    adversary: str | None = None,
    replica_overrides: dict[int, type] | None = None,
) -> ClusterReport:
    """Run an ``n``-replica cluster on localhost TCP; report throughput.

    Stops after ``duration_s`` seconds, or as soon as every replica has
    committed ``target_blocks`` blocks (when ``target_blocks`` > 0).

    ``adversary`` seats a registered attack (by name) at its default
    pids; ``replica_overrides`` seats explicit machine classes per pid
    (and wins where both name a pid).  Honest replicas must stay safe
    and live - the returned per-replica ``chains`` let callers check.

    ``start_delay_s`` holds back named pids (seconds) before starting
    their machines - the servers still bind immediately, so a delayed
    replica looks cleanly partitioned-from-genesis and must rejoin via
    state transfer once ``checkpoint_interval`` is on.
    """
    spec = get_spec(protocol)
    f, quorum = _sized_quorum(spec, n)
    clock = WallClock()
    overrides: dict[int, type] = {}
    if adversary is not None:
        from repro.adversary.registry import get_adversary

        adv = get_adversary(adversary)
        overrides.update(
            {pid: adv.replica_class(protocol) for pid in adv.seats(n, f)}
        )
    overrides.update(replica_overrides or {})
    config_overrides: dict[str, object] = dict(
        max_timeout_ms=max_timeout_ms, timeout_jitter=timeout_jitter
    )
    machines = [
        build_machine(
            protocol,
            pid,
            n,
            clock,
            seed=seed,
            payload_bytes=payload_bytes,
            block_size=block_size,
            timeout_ms=timeout_ms,
            checkpoint_interval=checkpoint_interval,
            config_overrides=config_overrides,
            replica_class=overrides.get(pid),
        )
        for pid in range(n)
    ]
    runtimes = [AsyncioRuntime(machine, host=host) for machine in machines]
    # Phase 1: bind every server on an ephemeral port; phase 2: exchange
    # the real addresses.  No fixed ports, so parallel CI runs never race.
    addresses = {}
    for pid, runtime in enumerate(runtimes):
        addresses[pid] = await runtime.start_server()
    for runtime in runtimes:
        runtime.set_peers(addresses)
    t0 = time.monotonic()
    delays = start_delay_s or {}
    late_tasks: list[asyncio.Task[None]] = []

    async def _start_late(rt: AsyncioRuntime, delay: float) -> None:
        await asyncio.sleep(delay)
        rt.start_machine()

    for pid, runtime in enumerate(runtimes):
        delay = delays.get(pid, 0.0)
        if delay > 0.0:
            late_tasks.append(asyncio.ensure_future(_start_late(runtime, delay)))
        else:
            runtime.start_machine()
    deadline = t0 + duration_s
    try:
        while time.monotonic() < deadline:
            # Ledger height counts checkpoint-skipped prefixes too, so a
            # replica that rejoined by state transfer satisfies the
            # target without replaying every block.
            if target_blocks > 0 and all(
                rt.machine.ledger.height() >= target_blocks for rt in runtimes
            ):
                break
            await asyncio.sleep(0.02)
    finally:
        elapsed = time.monotonic() - t0
        for task in late_tasks:
            task.cancel()
        if late_tasks:
            await asyncio.gather(*late_tasks, return_exceptions=True)
        for runtime in runtimes:
            await runtime.close()
    return ClusterReport(
        protocol=protocol,
        num_replicas=n,
        f=f,
        quorum=quorum,
        elapsed_s=elapsed,
        committed_blocks=min(rt.committed_blocks for rt in runtimes),
        committed_txs=min(rt.committed_txs for rt in runtimes),
        messages_sent=sum(rt.sent_messages for rt in runtimes),
        bytes_sent=sum(rt.sent_bytes for rt in runtimes),
        dropped_messages=sum(rt.dropped_messages for rt in runtimes),
        chains={
            rt.machine.pid: [block.hash.hex() for block in rt.machine.ledger.executed]
            for rt in runtimes
        },
        state_roots={
            rt.machine.pid: rt.machine.ledger.state_root.hex() for rt in runtimes
        },
        heights={rt.machine.pid: rt.machine.ledger.height() for rt in runtimes},
        base_heights={
            rt.machine.pid: rt.machine.ledger.base_height for rt in runtimes
        },
        base_roots={
            rt.machine.pid: rt.machine.ledger.base_state_root.hex() for rt in runtimes
        },
        caught_up_pids=tuple(
            rt.machine.pid for rt in runtimes if rt.machine.caught_up_via_checkpoint
        ),
    )


# -- single-replica service (repro serve) -----------------------------------


def _load_fault_rules(path: Path) -> tuple:
    """Parse a fault-spec file into its rule tuple (empty on any problem).

    The spec file is a control plane written by an orchestrator while
    this process runs; a torn or half-written read is not fatal, the
    poller simply retries on the next tick.
    """
    from repro.core.faults import FaultPlan

    try:
        return tuple(FaultPlan.from_rules_spec(path.read_bytes()).rules)
    except (OSError, ConfigError):
        return tuple()


def _write_health_file(path: Path, payload: dict) -> None:
    """Atomically replace ``path`` with JSON ``payload`` (no torn reads)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=0, sort_keys=True))
    os.replace(tmp, path)


async def serve_replica(
    protocol: str,
    pid: int,
    n: int,
    *,
    base_port: int,
    host: str = "127.0.0.1",
    seed: int = 1,
    duration_s: float = 0.0,
    payload_bytes: int = 128,
    block_size: int = 32,
    timeout_ms: float = 2_000.0,
    max_timeout_ms: float = 0.0,
    timeout_jitter: float = 0.0,
    adversary: str | None = None,
    checkpoint_interval: int = 0,
    seal_dir: str | Path | None = None,
    health_file: str | Path | None = None,
    health_interval_s: float = 0.5,
    fault_spec: str | Path | None = None,
) -> AsyncioRuntime:
    """Run one replica of a fixed-port deployment (``repro serve``).

    Peers are assumed at ``base_port + pid`` on ``host`` - start one
    process per pid with identical arguments.  Runs for ``duration_s``
    seconds (0 = until cancelled) and returns the runtime for inspection.

    Resilience options:

    * ``seal_dir`` - durable sealed checker state: every step advance is
      persisted before frames leave, and on start the latest snapshot is
      restored (rollback-refusing).  A process SIGKILLed mid-view can be
      respawned with identical arguments and rejoins safely.
    * ``health_file`` - a JSON liveness snapshot rewritten atomically
      every ``health_interval_s`` seconds (commit counts, checker step,
      fault counters, ledger height and state root); ``repro net-chaos``
      samples these for its verdict.
    * ``fault_spec`` - a :meth:`~repro.core.faults.FaultPlan.rules_spec`
      file applied to outbound frames, re-read whenever its mtime
      changes (live partition/heal without restarting processes).

    ``adversary`` runs *this* replica as the named registered attack
    (the same sans-I/O Machine the simulator seats); which pid plays
    Byzantine is the orchestrator's choice.
    """
    if not 0 <= pid < n:
        raise ConfigError(f"pid {pid} outside cluster of {n} replicas")
    clock = WallClock()
    replica_class: type | None = None
    if adversary is not None:
        from repro.adversary.registry import get_adversary

        replica_class = get_adversary(adversary).replica_class(protocol)
    machine = build_machine(
        protocol,
        pid,
        n,
        clock,
        seed=seed,
        payload_bytes=payload_bytes,
        block_size=block_size,
        timeout_ms=timeout_ms,
        checkpoint_interval=checkpoint_interval,
        config_overrides=dict(
            max_timeout_ms=max_timeout_ms, timeout_jitter=timeout_jitter
        ),
        replica_class=replica_class,
    )
    decider: FaultDecider | None = None
    spec_path: Path | None = None
    spec_mtime = -1.0
    if fault_spec is not None:
        spec_path = Path(fault_spec)
        decider = FaultDecider(_load_fault_rules(spec_path), seed)
        try:
            spec_mtime = spec_path.stat().st_mtime
        except OSError:
            spec_mtime = -1.0
    sealer: DurableSealer | None = None
    restored = False
    if seal_dir is not None:
        sealer = DurableSealer(machine, FileSealStore(Path(seal_dir)))
        try:
            restored = sealer.restore()
        except TEERefusal:
            _LOG.error(
                "replica %d: durable sealed state refused (rollback?); "
                "refusing to start",
                pid,
            )
            raise
        if restored:
            _LOG.info(
                "replica %d: restored sealed checker state at view %d",
                pid,
                machine.checker.step.view,
            )
    runtime = AsyncioRuntime(
        machine,
        host=host,
        port=base_port + pid,
        fault_decider=decider,
        sealer=sealer,
    )
    await runtime.start_server()
    runtime.set_peers({peer: (host, base_port + peer) for peer in range(n)})
    runtime.start_machine()

    watchdog = LivenessWatchdog()
    aux_tasks: list[asyncio.Task[None]] = []

    async def health_loop(path: Path) -> None:
        started = time.monotonic()
        last_blocks = -1
        while True:
            blocks = runtime.committed_blocks
            now_ms = clock.now
            watchdog.record_alive(pid, now_ms)
            if blocks > max(last_blocks, 0):
                watchdog.record_commit(
                    pid,
                    now_ms,
                    blocks,
                    committed_view=machine.last_committed_view,
                    catchup_retries=machine.catchup.retries,
                )
            last_blocks = blocks
            checker = machine.checker
            latest_ckpt = machine.latest_checkpoint
            payload = {
                "pid": pid,
                "protocol": protocol,
                "uptime_s": time.monotonic() - started,
                "committed_blocks": blocks,
                "committed_txs": runtime.committed_txs,
                "view": machine.view,
                "last_committed_view": machine.last_committed_view,
                "view_lag": machine.viewsync.view_lag(),
                "ledger_height": machine.ledger.height(),
                "state_root": machine.ledger.state_root.hex(),
                "timeouts_fired": machine.pacemaker.timeouts_fired,
                "timeout_ms": machine.pacemaker.current_timeout_ms,
                "checker_view": None if checker is None else checker.step.view,
                "checker_phase": None if checker is None else checker.step.phase.value,
                "checkpoint_interval": checkpoint_interval,
                "checkpoint_height": 0 if latest_ckpt is None else latest_ckpt.height,
                "caught_up_via_checkpoint": machine.caught_up_via_checkpoint,
                "catchup_active": machine.catchup.active,
                "catchup_retries": machine.catchup.retries,
                "catchup_rounds": machine.catchup.completed,
                "restored_from_seal": restored,
                "seal_writes": 0 if sealer is None else sealer.seal_writes,
                "checkpoint_writes": 0 if sealer is None else sealer.checkpoint_writes,
                "restored_checkpoint_height": (
                    0 if sealer is None else sealer.restored_checkpoint_height
                ),
                "dropped_messages": runtime.dropped_messages,
                "rejected_connections": runtime.rejected_connections,
                "mempool": machine.mempool.stats(),
                "faults": {} if decider is None else decider.counts(),
                "watchdog": watchdog.snapshot(now_ms).to_dict(),
            }
            try:
                _write_health_file(path, payload)
            except OSError:  # health reporting must never kill the replica
                _LOG.warning("replica %d: could not write health file %s", pid, path)
            await asyncio.sleep(health_interval_s)

    async def fault_spec_loop(path: Path, active: FaultDecider) -> None:
        nonlocal spec_mtime
        while True:
            await asyncio.sleep(0.25)
            try:
                mtime = path.stat().st_mtime
            except OSError:  # noqa: S112 - spec file absent until the operator writes it; keep polling
                continue
            if mtime == spec_mtime:
                continue
            rules = _load_fault_rules(path)
            active.set_rules(rules)
            spec_mtime = mtime
            _LOG.info(
                "replica %d: reloaded fault spec (%d rule(s))", pid, len(rules)
            )

    if health_file is not None:
        aux_tasks.append(asyncio.ensure_future(health_loop(Path(health_file))))
    if spec_path is not None and decider is not None:
        aux_tasks.append(asyncio.ensure_future(fault_spec_loop(spec_path, decider)))

    try:
        if duration_s > 0:
            await asyncio.sleep(duration_s)
        else:
            await asyncio.Event().wait()
    finally:
        for task in aux_tasks:
            task.cancel()
        if aux_tasks:
            await asyncio.gather(*aux_tasks, return_exceptions=True)
        await runtime.close()
    return runtime
