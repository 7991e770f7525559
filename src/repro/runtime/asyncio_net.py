"""Real-network runtime: protocol machines on asyncio TCP sockets.

The same sans-I/O machines the simulator hosts (``repro.runtime.sim``)
run here unchanged against real sockets and wall-clock timers:

* :class:`WallClock` satisfies :class:`repro.core.clock.Clock` with
  monotonic milliseconds.
* :class:`AsyncioRuntime` is one machine's seat on an event loop.  It
  interprets effect lists onto per-peer outbound queues (length-prefixed
  frames over :mod:`repro.core.codec`, see :mod:`repro.runtime.framing`)
  and exact timers (:class:`_Deadline`).  The ``ClientRequest`` / ``ClientReply``
  rows an effect list has for one peer travel as one packed frame (a
  column of the rows, :class:`~repro.core.codec.Packed`), in the peer's
  order; a :class:`~repro.runtime.effects.Reply` adds its replies to
  those rows; a payload, or a group of rows, is encoded once per effect
  list however many peers it goes to; and the frames an effect list makes
  for a peer leave when it ends, in one write to the peer's connection
  when that is idle, or else through the peer's outbox, whose sender
  writes what is queued in one go (up to the stream's high-water mark).
  The counters count messages, not frames.  Real CPUs charge themselves, so
  a replica is seated with a zero cost model and ``ChargeCpu`` is a no-op.
  A machine timer, and a frame a fault decider delays, fire no earlier
  than their deadline and about one loop turn after it: the loop sleeps
  to within :data:`_SELECT_RESOLUTION_S` of the deadline, then polls the
  rest on turns that do not block (``select(0)``, so I/O keeps flowing).
  That poll keeps the loop busy for up to a millisecond per timer.
* :class:`LocalCluster` seats one :class:`~repro.config.SystemConfig` on
  localhost as the simulator seats it (replicas, then its clients);
  ``repro run --runtime tcp`` (with or without ``--rate`` clients) and
  the cross-runtime equivalence tests run one and read its replicas'
  ledgers and its runtimes' counters.
* :func:`serve_replica` runs one replica of a config on a fixed port
  (``repro serve``).  Both size ``f`` from the replica count they are
  given and ignore only :data:`SIMULATOR_ONLY`.

Resilience hooks (all optional, see :mod:`repro.runtime.resilience`):

* a :class:`~repro.runtime.resilience.transport.FaultDecider` sits on
  the sending side of every peer link, applying the cluster's
  :class:`~repro.core.faults.FaultPlan` to each message before packing
  (drop, duplicate, delay) with seeded-deterministic decisions;
* a :class:`~repro.runtime.resilience.durable.DurableSealer` persists
  the replica's durable record before any frame leaves the host, so a
  SIGKILLed process restarts with its locks and certificates and without
  ever being able to re-sign a lower step;
* the runtime's appetite is bounded: per-peer outbound queues of
  :data:`MAX_OUTBOUND_QUEUE` frames that shed their oldest frame (and
  count it) when full, and a :data:`~repro.runtime.framing.MAX_FRAME_BYTES`
  guard that disconnects instead of buffering.

Outbound connections are lazy with exponential reconnect backoff; each
starts with a hello frame naming the sender pid so the acceptor can
attribute inbound messages before parsing any consensus payload.  An
inbound connection is an :class:`asyncio.BufferedProtocol` that reads
into one buffer of its own, reused for every read, and hands the
frames a read completes to the machine's ``on_messages`` inside the read
callback, each decoded as the machine reaches it (the machine decides
whether it takes a packed frame whole or row by row).
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import logging
import math
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

from repro.config import SystemConfig
from repro.core.clock import Clock
from repro.core.codec import (
    PACKED,
    CodecError,
    decode_message,
    encode_message,
    message_rows,
)
from repro.core.rng import RngStream
from repro.costs import CostModel
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.errors import ConfigError, TEERefusal
from repro.protocols.client import Client
from repro.protocols.registry import ProtocolSpec, get_spec
from repro.protocols.replica import BaseReplica
from repro.runtime.effects import (
    CancelTimer,
    ChargeCpu,
    Commit,
    Effect,
    Reply,
    Send,
    SetTimer,
)
from repro.runtime.framing import (
    FRAME_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FramingError,
    decode_hello,
    encode_frame,
    encode_hello,
)
from repro.runtime.machine import Machine
from repro.runtime.resilience.durable import DurableSealer
from repro.runtime.resilience.transport import FaultDecider
from repro.tee.sealed import FileSealStore

_LOG = logging.getLogger("repro.net")

#: Reconnect backoff for outbound peer connections: doubling from the
#: initial sleep to the ceiling (seconds), each sleep perturbed by +/-
#: this fraction of seeded jitter so a herd of reconnecting peers
#: decorrelates deterministically.
RECONNECT_INITIAL_S = 0.05
RECONNECT_MAX_S = 1.0
RECONNECT_JITTER = 0.25

#: Bytes of the buffer each inbound connection reads into (a larger frame
#: arrives over several reads).
_RECV_CHUNK = 64 * 1024

#: Frames queued per peer before the oldest is shed for the newest.
MAX_OUTBOUND_QUEUE = 10_000

#: The selector's resolution (seconds): epoll waits in whole milliseconds,
#: rounded up, so a ``call_later`` wakes up to this much late.  A
#: :class:`_Deadline` sleeps only to this margin short of its deadline.
_SELECT_RESOLUTION_S = 0.001


class WallClock:
    """Monotonic wall-clock milliseconds, zeroed at construction."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0


class _Deadline:
    """``callback`` run on the loop no earlier than ``delay_ms`` from now.

    A coarse ``call_at`` sleeps to :data:`_SELECT_RESOLUTION_S` short of
    the deadline; from there :meth:`_check` re-arms itself at zero delay,
    one full loop turn at a time (I/O included), until the deadline has
    passed.  A zero delay fires on the next turn after that turn's I/O,
    as ``call_later(0)`` does.  :attr:`handle` is the stage armed now, so
    :meth:`cancel` stops the callback in either stage.  A NaN delay is
    refused (the poll would never end); a negative one is zero.
    """

    __slots__ = ("_loop", "_deadline", "_callback", "handle")

    def __init__(self, delay_ms: float, callback: Callable[[], None]) -> None:
        if math.isnan(delay_ms):
            raise ValueError(f"cannot wait for a NaN delay (delay_ms={delay_ms})")
        loop = self._loop = asyncio.get_running_loop()
        now = loop.time()
        self._deadline = now + max(delay_ms, 0.0) / 1000.0
        self._callback = callback
        self.handle: asyncio.TimerHandle = loop.call_at(
            max(self._deadline - _SELECT_RESOLUTION_S, now), self._check
        )

    def _check(self) -> None:
        if self._loop.time() < self._deadline:
            self.handle = self._loop.call_later(0, self._check)
        else:
            self._callback()

    def cancel(self) -> None:
        self.handle.cancel()


class _Outbox:
    """Frames queued for one peer, the flag its sender sleeps on, and the
    connection the sender holds (``None`` while it has none)."""

    __slots__ = ("frames", "wake", "link", "high_water")

    def __init__(self) -> None:
        self.frames: collections.deque[bytes] = collections.deque()
        self.wake = asyncio.Event()
        self.link: tuple[asyncio.StreamReader, asyncio.WriteTransport] | None = None
        self.high_water = 0

    def idle(self) -> asyncio.WriteTransport | None:
        """The transport a flush may write to at once: connected, nothing
        queued here (it would be overtaken), and not hung up.  ``None``
        otherwise: the frames wait here."""
        link = self.link
        if link is None or self.frames or _hung_up(*link):
            return None
        return link[1]


def _hung_up(reader: asyncio.StreamReader, transport: asyncio.WriteTransport) -> bool:
    """The connection is closing, or the peer closed its end (a peer never
    writes on a connection it accepted, so an end of stream means it is gone)."""
    return transport.is_closing() or reader.at_eof()


def _framed(payload: object, frames: dict[int, bytes]) -> bytes:
    """``payload``'s frame, encoded once per flush: ``frames`` is keyed by
    payload *object* (a broadcast, or a client's back-to-back sends of one
    request, frames it once).  The effects keep every payload alive until
    the flush ends, so an id cannot be reused for another object meanwhile."""
    memo = id(payload)
    frame = frames.get(memo)
    if frame is None:
        frame = frames[memo] = encode_frame(encode_message(payload))
    return frame


def _packed_frames(rows: list[object]) -> list[tuple[bytes, int]]:
    """``rows`` of one packable class as one packed frame; halved, in
    order, until each frame is within ``MAX_FRAME_BYTES`` (a lone row is
    its own frame)."""
    if len(rows) == 1:
        return [(encode_frame(encode_message(rows[0])), 1)]
    message = encode_message(PACKED[type(rows[0])].of(rows))
    if len(message) <= MAX_FRAME_BYTES:
        return [(encode_frame(message), len(rows))]
    half = len(rows) // 2
    return _packed_frames(rows[:half]) + _packed_frames(rows[half:])


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
        #: Per peer, the frames the running flush made, or None outside one.
        self._flushing: dict[int, list[bytes]] | None = None
        self._sender_tasks: dict[int, asyncio.Task[None]] = {}
        self._inbound: set[asyncio.BaseTransport] = set()
        self._timers: dict[int, _Deadline] = {}
        self._delayed: set[_Deadline] = set()
        self._closed = False
        self._machine_started = False
        # Seeded jitter for reconnect backoff: deterministic per
        # (seed, src, dst), so backoff schedules never share phase
        # across links yet stay reproducible (DET-lint clean).
        self._reconnect_rng: dict[int, RngStream] = {}
        # Transport-level counters for `repro run --runtime tcp` / health reporting.
        self.sent_messages = 0
        self.sent_bytes = 0
        self.dropped_messages = 0  # outbound queue overflow
        self.rejected_connections = 0  # malformed hello / framing violations
        self.committed_blocks = 0
        self.committed_txs = 0

    # -- lifecycle ---------------------------------------------------------

    async def start_server(self) -> tuple[str, int]:
        """Bind the listening socket; returns the (host, port) peers dial."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self), self.host, self.port
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
        """Tear down timers, sender tasks, inbound connections and the server.

        Every sender aborts its transport and awaits ``wait_closed`` (bytes
        the transport still holds are dropped like the frames still queued:
        a stalled peer must not be able to hold ``close()`` up), and every
        inbound transport is aborted, so a completed ``close()`` leaves no
        pending tasks and no open sockets behind (asserted by the shutdown
        tests).
        """
        self._closed = True
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for later in self._delayed:
            later.cancel()
        self._delayed.clear()
        # Detach all shared teardown state *before* the first await: a
        # concurrent or re-entrant close() then finds nothing left to
        # tear down.
        tasks = list(self._sender_tasks.values())
        self._sender_tasks.clear()
        inbound, self._inbound = self._inbound, set()
        for transport in inbound:
            transport.abort()
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
        # Durability before visibility: persist a changed durable record
        # before any frame that depends on it can be queued, so a SIGKILL
        # at any later instant leaves a record at least as far along as
        # every signature the cluster may have seen.
        if self.sealer is not None:
            self.sealer.maybe_seal()
        # The flush's economies: each payload object framed once
        # (``_framed``), each group of row objects framed once, per peer
        # the packable rows of one class sent since its last frame, and per
        # peer the frames made, which leave together when the flush ends.
        frames: dict[int, bytes] = {}
        groups: dict[tuple[int, ...], list[tuple[bytes, int]]] = {}
        rows: dict[int, list[object]] = {}
        made: dict[int, list[bytes]] = {}
        self._flushing = made
        try:
            for effect in effects:
                if type(effect) is Send:
                    for dest in effect.dests:
                        self._send(dest, effect.payload, frames, groups, rows)
                elif type(effect) is SetTimer:
                    self._arm_timer(effect.timer_id, effect.delay_ms)
                elif type(effect) is CancelTimer:
                    timer = self._timers.pop(effect.timer_id, None)
                    if timer is not None:
                        timer.cancel()
                elif type(effect) is Reply:
                    for dest, reply in effect.sends:
                        self._send(dest, reply, frames, groups, rows)
                elif type(effect) is Commit:
                    self.committed_blocks += 1
                    self.committed_txs += effect.txs
                # ChargeCpu models simulated CPU occupancy; real CPUs charge
                # themselves, so it needs no interpretation here.
            for dest, pending in rows.items():
                self._send_rows(dest, pending, frames, groups)
        finally:
            self._flushing = None
            for dest, queued in made.items():
                self._post(dest, queued)

    def machine_recovered(self) -> None:
        """No CPU model to reset on a real host."""

    # -- sending -----------------------------------------------------------

    def _send(
        self,
        dest: int,
        payload: object,
        frames: dict[int, bytes],
        groups: dict[tuple[int, ...], list[tuple[bytes, int]]],
        rows: dict[int, list[object]],
    ) -> None:
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
        # A packable row joins the rows pending for ``dest``; anything else
        # sends those first, so the peer's order is the effects' order.
        packable = copies == 1 and delay_ms == 0.0 and type(payload) in PACKED
        pending = rows.get(dest)
        if pending is not None:
            if packable and type(pending[0]) is type(payload):
                pending.append(payload)
                return
            self._send_rows(dest, rows.pop(dest), frames, groups)
        if packable:
            rows[dest] = [payload]
            return
        frame = _framed(payload, frames)
        for _ in range(copies):
            if not delay_ms <= 0.0:  # NaN too: _enqueue_later refuses it
                self._enqueue_later(dest, frame, delay_ms)
            else:
                self._enqueue(dest, frame)

    def _send_rows(
        self,
        dest: int,
        rows: list[object],
        frames: dict[int, bytes],
        groups: dict[tuple[int, ...], list[tuple[bytes, int]]],
    ) -> None:
        """Queue ``rows`` for ``dest``: a lone row as its own frame, more as
        packed frames, the same group of row objects encoded once."""
        if len(rows) == 1:
            self._enqueue(dest, _framed(rows[0], frames))
            return
        memo = tuple(map(id, rows))
        packed = groups.get(memo)
        if packed is None:
            packed = groups[memo] = _packed_frames(rows)
        for frame, count in packed:
            self._enqueue(dest, frame, count)

    def _deliver_self(self, payload: object) -> None:
        if not self._closed:
            self.machine.on_message(self.machine.pid, payload)

    def _enqueue(self, dest: int, frame: bytes, rows: int = 1) -> None:
        """Send ``frame``, which carries ``rows`` messages, to ``dest``: when
        the running flush ends, or at once outside a flush (a delayed frame)."""
        if self._closed:
            return
        self.sent_messages += rows
        self.sent_bytes += len(frame)
        flushing = self._flushing
        if flushing is None:
            self._post(dest, [frame])
            return
        queued = flushing.get(dest)
        if queued is None:
            flushing[dest] = [frame]
        else:
            queued.append(frame)

    def _post(self, dest: int, frames: list[bytes]) -> None:
        """Hand ``frames`` to ``dest``: in one write when its connection is
        idle (:meth:`_Outbox.idle`), otherwise to its outbox and sender."""
        outbox = self._queues.get(dest)
        if outbox is None:
            outbox = self._queues[dest] = _Outbox()
            self._sender_tasks[dest] = asyncio.get_running_loop().create_task(
                self._sender_loop(dest, outbox)
            )
        at = 0
        transport = outbox.idle()
        if transport is not None:
            # Like the sender's batch, a write stops at the stream's
            # high-water mark (one frame past it at most): the rest of a
            # large flush waits here, where the oldest frames can be shed.
            size = transport.get_write_buffer_size()
            while at < len(frames) and size < outbox.high_water:
                size += len(frames[at])
                at += 1
            if at == len(frames):
                transport.write(frames[0] if at == 1 else b"".join(frames))
                return
            if at:
                transport.write(b"".join(frames[:at]))  # and the rest waits
        queue = outbox.frames
        for frame in frames[at:]:
            if len(queue) >= MAX_OUTBOUND_QUEUE:
                # Sacrifice the stalest frame for the fresh one.  Old consensus
                # messages are the most likely to be obsolete (their view has
                # moved on), so this keeps recovery traffic - new-views, fresh
                # votes - flowing to a slow peer.
                self.dropped_messages += message_rows(queue.popleft(), FRAME_PREFIX_BYTES)
            queue.append(frame)
        outbox.wake.set()

    def _enqueue_later(self, dest: int, frame: bytes, delay_ms: float) -> None:
        def deliver() -> None:
            self._delayed.discard(later)
            self._enqueue(dest, frame)

        later = _Deadline(delay_ms, deliver)
        self._delayed.add(later)

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
        """Keep a connection to ``dest`` open, reconnecting with jittered
        backoff, and write what waits in ``outbox``.

        While the connection is idle a flush writes its frames itself
        (:meth:`_post`); the sender writes the frames that had to wait -
        for a connection, behind a backlog, or behind a full transport.
        What is queued when it wakes goes out in one ``write`` once the
        transport has drained (a flush's own writes fill it too).  One
        write stops at the stream's high-water mark, so behind a slow peer
        the backlog waits in the outbox, where the oldest frames can still
        be shed, and not in the transport, where they cannot.  A connection
        the peer hung up gets no more frames: what waits goes out on the
        next one.
        """
        backoff = RECONNECT_INITIAL_S
        while not self._closed:
            try:
                host, port = self.peers[dest]
                reader, writer = await asyncio.open_connection(host, port)
            except (OSError, KeyError):
                await asyncio.sleep(self._backoff_jitter(dest, backoff))
                backoff = min(backoff * 2, RECONNECT_MAX_S)
                continue
            backoff = RECONNECT_INITIAL_S
            try:
                writer.write(encode_hello(self.machine.pid))
                _low, outbox.high_water = writer.transport.get_write_buffer_limits()
                outbox.link = (reader, writer.transport)
                frames = outbox.frames
                while True:
                    if not frames:
                        outbox.wake.clear()
                        await outbox.wake.wait()
                    await writer.drain()
                    if _hung_up(reader, writer.transport):
                        break
                    batch = [frames.popleft()]
                    size = len(batch[0])
                    while frames and size < outbox.high_water:
                        batch.append(frames.popleft())
                        size += len(batch[-1])
                    writer.write(b"".join(batch))
            except (OSError, ConnectionError):
                # Frames written into the dead socket are lost; consensus
                # tolerates that (the next view change resynchronises).
                pass
            finally:
                outbox.link = None
                if self._closed:
                    # A graceful close waits for the transport to flush, and
                    # behind a peer that stopped reading that is for ever.
                    writer.transport.abort()
                else:
                    writer.close()
                with contextlib.suppress(Exception, asyncio.CancelledError):
                    await writer.wait_closed()

    # -- timers ------------------------------------------------------------

    def _arm_timer(self, timer_id: int, delay_ms: float) -> None:
        def fire() -> None:
            self._timers.pop(timer_id, None)
            if not self._closed:
                self.machine.on_timer(timer_id)

        self._timers[timer_id] = _Deadline(delay_ms, fire)


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: its hello, then the frames of every read.

    The transport reads into :attr:`buffer`, the same one for every read,
    so a read allocates nothing before its frames are cut out.
    :meth:`buffer_updated` runs with no ``await``: the frames a read
    completes reach the machine, as one entry, before the loop turns.
    """

    transport: asyncio.BaseTransport  # from connection_made on

    def __init__(self, runtime: AsyncioRuntime) -> None:
        self.runtime = runtime
        self.buffer = memoryview(bytearray(_RECV_CHUNK))
        self.decoder = FrameDecoder()
        self.sender: int | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        if self.runtime._closed:
            transport.abort()
        else:
            self.runtime._inbound.add(transport)

    def connection_lost(self, exc: Exception | None) -> None:
        # A peer's EOF, a reset, a rejection or close(): the reconnect loop
        # on the peer's side owns recovery.
        self.runtime._inbound.discard(self.transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.buffer

    def buffer_updated(self, nbytes: int) -> None:
        runtime = self.runtime
        if runtime._closed:
            return
        try:
            frames = self.decoder.feed(self.buffer[:nbytes])
            if self.sender is None and frames:
                self.sender = decode_hello(frames.pop(0))
            if not frames:
                return
            if not runtime._machine_started:
                # The process is up (socket bound) but the machine has not
                # been started yet - a deliberately held-back replica.
                # Dropping mirrors a dark process: consensus retransmits
                # cover the loss.
                runtime.dropped_messages += sum(map(message_rows, frames))
                return
            # The frames of one read are one entry: one flush of their
            # effects.  Each is decoded as the machine reaches it (and
            # ``on_messages`` builds the records of a packed frame the
            # machine does not serve whole as it reaches them), so a decoded
            # message lives no longer than it did with a flush per message,
            # and a malformed frame raises only after the frames before it
            # were handled (and their effects flushed).
            runtime.machine.on_messages(self.sender, map(decode_message, frames))
        except (FramingError, CodecError) as exc:
            # Malformed peer stream: disconnect, never buffer or guess.
            runtime.rejected_connections += 1
            _LOG.warning(
                "replica %d: rejecting connection from %s (claimed pid %s): %s",
                runtime.machine.pid,
                self.transport.get_extra_info("peername"),
                self.sender,
                exc,
            )
            self.transport.close()


# -- deployments ------------------------------------------------------------

#: :class:`SystemConfig` fields only the simulator can honour: the latency
#: model (regions, GST), FIFO links, the CPU cost model and real crypto.
#: A replica on this host runs with :meth:`CostModel.zero` in place of
#: ``costs`` (its ``config`` keeps the field), so it never prices a charge.
SIMULATOR_ONLY = frozenset({
    "regions", "gst_ms", "delta_ms", "pre_gst_extra_ms", "fifo_links", "costs", "use_real_crypto"
})


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


def seat_class(
    config: SystemConfig, pid: int, n: int, adversary: str | None = None
) -> type | None:
    """The machine class replica ``pid`` of ``n`` runs: the named attack, or None for honest.

    Raises :class:`ConfigError` for a seat that cannot exist: a pid outside
    the cluster, a cluster too small for the protocol, an unknown attack.
    """
    if not 0 <= pid < n:
        raise ConfigError(f"pid {pid} outside cluster of {n} replicas")
    _sized_quorum(get_spec(config.protocol), n)
    if adversary is None:
        return None
    from repro.adversary.registry import get_adversary

    return get_adversary(adversary).replica_class(config.protocol)


def replica_machine(
    config: SystemConfig,
    pid: int,
    n: int,
    clock: Clock,
    *,
    client_pids: dict[int, int] | None = None,
    replica_class: type | None = None,
) -> BaseReplica:
    """Replica ``pid`` of an ``n``-replica TCP deployment of ``config``.

    The HMAC scheme is keyed off the config's seed, and ``f`` and the
    quorum are sized from ``n``: the machine runs ``replace(config,
    f=sized_f)``, with a zero cost model (:data:`SIMULATOR_ONLY`).
    ``client_pids`` maps client ids to transport pids;
    ``replica_class`` seats another sans-I/O machine class (a registered
    adversary) in place of the protocol's honest one.
    """
    spec = get_spec(config.protocol)
    f, quorum = _sized_quorum(spec, n)
    scheme = HmacScheme(secret=f"system-{config.seed}".encode())
    directory = KeyDirectory(scheme)
    # Unlike the simulator, each process holds its own directory, so the
    # peers' trusted-component identities must be registered here too
    # (each replica's own TEE self-registers during construction).
    for peer in range(n):
        directory.register_replica(peer)
        directory.register_tee(peer)
    cls = replica_class or spec.replica_class
    replica = cls(
        pid, clock, replace(config, f=f), scheme, directory, n, quorum,
        client_pids=dict(client_pids or {}),
    )
    replica.replica_pids = list(range(n))
    replica.costs = CostModel.zero()
    return replica


def build_machine(
    protocol: str,
    pid: int,
    n: int,
    clock: Clock,
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
    """:func:`replica_machine` for a config spelled as keyword arguments.

    ``config_overrides`` merges further :class:`SystemConfig` fields.
    """
    config = SystemConfig(
        protocol=protocol, seed=seed, payload_bytes=payload_bytes, block_size=block_size,
        timeout_ms=timeout_ms, checkpoint_interval=checkpoint_interval,
        **(config_overrides or {}),  # type: ignore[arg-type]
    )
    return replica_machine(
        config, pid, n, clock, client_pids=client_pids, replica_class=replica_class
    )


class LocalCluster:
    """One localhost deployment of a :class:`SystemConfig`, every machine on its own runtime.

    Replicas hold pids ``0..n-1`` and the config's clients the pids after
    them, as on the simulator; ``n`` defaults to the protocol's N(f).
    ``adversary`` seats a registered attack at its default pids, and
    ``replica_overrides`` explicit classes per pid (winning where both
    name one).  Construction opens no socket; :meth:`run` does.
    """

    def __init__(
        self,
        config: SystemConfig,
        n: int | None = None,
        *,
        adversary: str | None = None,
        replica_overrides: dict[int, type] | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        spec = get_spec(config.protocol)
        self.n = spec.num_replicas(config.f) if n is None else n
        self.f, self.quorum = _sized_quorum(spec, self.n)
        clock = WallClock()
        classes: dict[int, type] = {}
        if adversary is not None:
            from repro.adversary.registry import get_adversary

            classes = get_adversary(adversary).replica_overrides(config.protocol, self.n, self.f)
        classes.update(replica_overrides or {})
        replica_pids = list(range(self.n))
        client_pids = {cid: self.n + cid for cid in range(config.num_clients)}
        self.replicas = [
            replica_machine(
                config, pid, self.n, clock, client_pids=client_pids, replica_class=classes.get(pid)
            )
            for pid in replica_pids
        ]
        self.clients = [
            Client.from_config(config, cid, pid, replica_pids, clock)
            for cid, pid in client_pids.items()
        ]
        self.runtimes = [
            AsyncioRuntime(machine, host=host) for machine in (*self.replicas, *self.clients)
        ]

    async def run(
        self,
        duration_s: float,
        *,
        target_blocks: int = 0,
        start_delay_s: dict[int, float] | None = None,
    ) -> float:
        """Boot, run, close; returns the seconds the machines ran.

        Two-phase boot: bind every server on an ephemeral port, then
        exchange the real addresses (no fixed ports, so parallel runs
        never race).  Stops after ``duration_s`` seconds, or once every
        replica's ledger reaches ``target_blocks`` (when > 0).
        ``start_delay_s`` holds named pids back (seconds); their servers
        bind at once, so they look partitioned from genesis.
        """
        late: list[asyncio.TimerHandle] = []
        try:
            addresses = {}
            for runtime in self.runtimes:
                addresses[runtime.machine.pid] = await runtime.start_server()
            for runtime in self.runtimes:
                runtime.set_peers(addresses)
            started = time.monotonic()
            delays = start_delay_s or {}
            for runtime in self.runtimes:
                delay = delays.get(runtime.machine.pid, 0.0)
                if delay > 0.0:
                    loop = asyncio.get_running_loop()
                    late.append(loop.call_later(delay, runtime.start_machine))
                else:
                    runtime.start_machine()
            while time.monotonic() < started + duration_s:
                # Ledger height counts checkpoint-skipped prefixes too, so a
                # replica that rejoined by state transfer satisfies the
                # target without replaying every block.
                if target_blocks > 0 and all(
                    replica.ledger.height() >= target_blocks for replica in self.replicas
                ):
                    break
                await asyncio.sleep(0.02)
            return time.monotonic() - started
        finally:
            for handle in late:
                handle.cancel()
            for runtime in self.runtimes:
                await runtime.close()


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


def health_snapshot(
    machine: BaseReplica, runtime: AsyncioRuntime, uptime_s: float, restored: bool
) -> dict:
    """The liveness sample ``repro serve --health-file`` publishes for ``machine``."""
    sealer, decider = runtime.sealer, runtime.fault_decider
    checker = machine.checker
    latest_ckpt = machine.latest_checkpoint
    return {
        "pid": machine.pid,
        "protocol": machine.config.protocol,
        "uptime_s": uptime_s,
        "committed_blocks": runtime.committed_blocks,
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
        "checkpoint_interval": machine.config.checkpoint_interval,
        "checkpoint_height": 0 if latest_ckpt is None else latest_ckpt.height,
        "caught_up_via_checkpoint": machine.caught_up_via_checkpoint,
        "catchup_active": machine.catchup.active,
        "catchup_retries": machine.catchup.retries,
        "catchup_rounds": machine.catchup.completed,
        "restored_from_seal": restored,
        "seal_writes": 0 if sealer is None else sealer.seal_writes,
        "restored_checkpoint_height": (
            0 if sealer is None else sealer.restored_checkpoint_height
        ),
        "dropped_messages": runtime.dropped_messages,
        "rejected_connections": runtime.rejected_connections,
        "mempool": machine.mempool.stats(),
        "faults": {} if decider is None else decider.counts(),
    }


async def serve_replica(
    config: SystemConfig,
    pid: int,
    n: int,
    *,
    base_port: int,
    host: str = "127.0.0.1",
    duration_s: float = 0.0,
    adversary: str | None = None,
    seal_dir: str | Path | None = None,
    health_file: str | Path | None = None,
    health_interval_s: float = 0.5,
    fault_spec: str | Path | None = None,
) -> AsyncioRuntime:
    """Run replica ``pid`` of an ``n``-replica fixed-port deployment of ``config``.

    Peers are assumed at ``base_port + pid`` on ``host`` - start one
    process per pid with identical arguments.  Runs for ``duration_s``
    seconds (0 = until cancelled) and returns the runtime for inspection.

    Resilience options:

    * ``seal_dir`` - the replica's durable record: every change is
      persisted before frames leave, and on start the latest record is
      restored (rollback-refusing).  A process SIGKILLed mid-view can be
      respawned with identical arguments and rejoins safely.
    * ``health_file`` - a :func:`health_snapshot` rewritten atomically
      every ``health_interval_s`` seconds; ``repro net-chaos`` samples
      these for its verdict.
    * ``fault_spec`` - a :meth:`~repro.core.faults.FaultPlan.rules_spec`
      file applied to outbound frames, re-read whenever its mtime
      changes (live partition/heal without restarting processes).

    ``adversary`` runs *this* replica as the named registered attack
    (the same sans-I/O Machine the simulator seats); which pid plays
    Byzantine is the orchestrator's choice.
    """
    replica_class = seat_class(config, pid, n, adversary)
    machine = replica_machine(config, pid, n, WallClock(), replica_class=replica_class)
    decider: FaultDecider | None = None
    spec_mtime = -1.0
    if fault_spec is not None:
        decider = FaultDecider(_load_fault_rules(Path(fault_spec)), config.seed)
        with contextlib.suppress(OSError):
            spec_mtime = Path(fault_spec).stat().st_mtime
    sealer: DurableSealer | None = None
    restored = False
    if seal_dir is not None:
        sealer = DurableSealer(machine, FileSealStore(Path(seal_dir)))
        try:
            restored = sealer.restore()
        except TEERefusal:
            _LOG.error("replica %d: durable record refused (rollback?); not starting", pid)
            raise
        if restored:
            _LOG.info("replica %d: restored its durable record at view %d", pid, machine.view)
    runtime = AsyncioRuntime(
        machine, host=host, port=base_port + pid, fault_decider=decider, sealer=sealer
    )
    await runtime.start_server()
    runtime.set_peers({peer: (host, base_port + peer) for peer in range(n)})
    runtime.start_machine()
    started = time.monotonic()
    aux_tasks: list[asyncio.Task[None]] = []

    async def health_loop(path: Path) -> None:
        while True:
            try:
                _write_health_file(
                    path, health_snapshot(machine, runtime, time.monotonic() - started, restored)
                )
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
    if fault_spec is not None and decider is not None:
        aux_tasks.append(asyncio.ensure_future(fault_spec_loop(Path(fault_spec), decider)))

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
