"""The transport's economies, and the accounting they must not touch.

A payload object is encoded once per ``execute()`` flush however many
peers it goes to, the client rows a flush has for one peer travel as one
packed frame, the flush's frames for an idle peer leave in one write when
it ends, and a peer's sender writes what had to wait for that peer in one
go, up to the stream's high-water mark.  On the receiving side, every
read of a connection lands in one buffer the connection reuses, and the
frames one read completes reach the machine as one entry
(``on_messages``), so their effects flush once.  Counters and fault
decisions stay per message and per destination.  Real sockets on
ephemeral localhost ports, except where a property test drives the
receiving protocol by hand; the machines only record what they are
handed.
"""

import asyncio
import itertools
import socket
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import ClientReplies, ClientRequests
from repro.core.faults import DROP, FaultAction, FaultRule
from repro.core.block import create_leaf
from repro.core.mempool import AdmissionVerdict, Transaction
from repro.core.messages import BlockRequest, BlockResponse, ClientReply, ClientRequest
from repro.runtime import asyncio_net
from repro.runtime.asyncio_net import AsyncioRuntime, WallClock
from repro.runtime.effects import ChargeCpu, Reply, Send
from repro.runtime.framing import MAX_FRAME_BYTES, FrameDecoder, encode_frame, encode_hello
from repro.runtime.machine import Machine
from repro.runtime.resilience.transport import FaultDecider, decision_table
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from tests.conftest import seat_recorders


class Scripted(Machine):
    """Records deliveries; ``start`` runs a script inside one entry point,
    so everything the script sends is one effect list - one flush."""

    def __init__(self, pid, clock, script=None):
        super().__init__(pid, clock)
        self.script = script
        self.received = []
        self.received_at = []

    def start(self):
        if self.script is not None:
            self.script(self)

    def on_message(self, sender, payload):
        self.received.append((sender, payload))
        self.received_at.append(self.now)


async def _cluster(peers, script, **sender_kwargs):
    """Pid 0 runs ``script`` against ``peers`` recording machines."""
    clock = WallClock()
    runtimes = [AsyncioRuntime(Scripted(0, clock, script), **sender_kwargs)]
    runtimes += [AsyncioRuntime(Scripted(pid, clock)) for pid in range(1, peers + 1)]
    addresses = {}
    for runtime in runtimes:
        addresses[runtime.machine.pid] = await runtime.start_server()
    for runtime in runtimes:
        runtime.set_peers(addresses)
    for runtime in reversed(runtimes):  # receivers first, the script last
        runtime.start_machine()
    return runtimes


async def _until(condition, timeout_s=10.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out waiting for delivery"
        await asyncio.sleep(0.005)


def _block_request(number):
    """A consensus message that always travels as its own frame."""
    return BlockRequest(number.to_bytes(32, "big"))


def _count_encodes(monkeypatch):
    """Count calls through the name the transport (and the ledger's tracer) binds."""
    calls = []
    real = asyncio_net.encode_message

    def counting(msg):
        calls.append(msg)
        return real(msg)

    monkeypatch.setattr(asyncio_net, "encode_message", counting)
    return calls


def _count_feeds(monkeypatch):
    """Frames per ``FrameDecoder.feed`` - per socket read - on the inbound side."""
    feeds = []

    class CountingDecoder(FrameDecoder):
        def feed(self, data):
            frames = super().feed(data)
            feeds.append(len(frames))
            return frames

    monkeypatch.setattr(asyncio_net, "FrameDecoder", CountingDecoder)
    return feeds


def _capture_small_buffered_connections(monkeypatch):
    """The writers the runtime opens, each with a small kernel send buffer
    (listeners shrink their own receive side), so that a burst meets a full
    socket almost at once."""
    writers = []
    real_open = asyncio.open_connection

    async def capturing_open(host, port):
        reader, writer = await real_open(host, port)
        writer.get_extra_info("socket").setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        writers.append(writer)
        return reader, writer

    monkeypatch.setattr(asyncio_net.asyncio, "open_connection", capturing_open)
    return writers


def test_broadcast_is_encoded_once_and_counted_per_frame(monkeypatch):
    calls = _count_encodes(monkeypatch)
    msg = BlockRequest(b"\x08" * 32)

    async def scenario():
        runtimes = await _cluster(3, lambda m: m.broadcast([1, 2, 3], msg, include_self=True))
        try:
            await _until(lambda: all(rt.machine.received for rt in runtimes))
            assert len(calls) == 1
            for runtime in runtimes[1:]:
                assert runtime.machine.received == [(0, msg)]
                assert runtime.machine.received[0][1] is not msg  # it crossed the codec
            # Self-delivery skips the codec and the counters.
            assert runtimes[0].machine.received == [(0, msg)]
            assert runtimes[0].machine.received[0][1] is msg
            assert runtimes[0].sent_messages == 3
            assert runtimes[0].sent_bytes == 3 * len(encode_frame(asyncio_net.encode_message(msg)))
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("include_self", [False, True])
def test_both_hosts_deliver_a_broadcast_to_the_same_pids(include_self):
    """The machine decides a broadcast's receivers; neither host adds its
    sender back (over TCP a self-delivery is a loop callback, so one turn of
    the loop after the peers heard it shows whether there was one)."""
    msg = BlockRequest(b"\x07" * 32)

    def script(machine):
        machine.broadcast([1, 0, 2], msg, include_self=include_self)

    sim = Simulator()
    recorders = seat_recorders(Network(sim, ConstantLatency(1.0)), 0, 1, 2)
    script(recorders[0])
    sim.run()
    simulated = [r.pid for r in recorders if r.received]

    async def scenario():
        runtimes = await _cluster(2, script)
        try:
            await _until(lambda: all(rt.machine.received for rt in runtimes[1:]))
            await asyncio.sleep(0.05)
            return [rt.machine.pid for rt in runtimes if rt.machine.received]
        finally:
            for runtime in runtimes:
                await runtime.close()

    assert asyncio.run(scenario()) == simulated == ([0, 1, 2] if include_self else [1, 2])


def test_consecutive_sends_share_an_encoding_by_object_not_by_luck(monkeypatch):
    calls = _count_encodes(monkeypatch)
    first = BlockRequest(b"\x01" * 32)
    second = BlockRequest(b"\x02" * 32)
    twin = BlockRequest(b"\x01" * 32)  # equal to ``first``, another object

    def script(machine):
        for dest, msg in ((1, first), (2, second), (3, first), (1, second), (2, first), (3, twin)):
            machine.send(dest, msg)

    async def scenario():
        runtimes = await _cluster(3, script)
        try:
            await _until(lambda: all(len(rt.machine.received) == 2 for rt in runtimes[1:]))
            assert [id(msg) for msg in calls] == [id(first), id(second), id(twin)]
            assert [msg for _, msg in runtimes[1].machine.received] == [first, second]
            assert [msg for _, msg in runtimes[2].machine.received] == [second, first]
            assert [msg for _, msg in runtimes[3].machine.received] == [first, twin]
            assert runtimes[0].sent_messages == 6
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_a_second_flush_encodes_again(monkeypatch):
    """The memo lives for one ``execute()``: ids may be reused after it."""
    calls = _count_encodes(monkeypatch)
    msg = BlockRequest(b"\x09" * 32)

    async def scenario():
        runtimes = await _cluster(1, lambda m: m.send(1, msg))
        try:
            runtimes[0].machine.send(1, msg)  # outside an entry point: its own flush
            await _until(lambda: len(runtimes[1].machine.received) == 2)
            assert len(calls) == 2
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


class _ByDestination(FaultRule):
    """Drop to 1, duplicate to 2, delay to 3."""

    ACTIONS = {1: DROP, 2: FaultAction(duplicates=1), 3: FaultAction(extra_delay_ms=150.0)}

    def decide(self, src, dst, payload, now, rng):
        return self.ACTIONS.get(dst)


def test_fault_decisions_stay_per_destination_over_a_shared_frame(monkeypatch):
    calls = _count_encodes(monkeypatch)
    msg = BlockRequest(b"\x0a" * 32)
    decider = FaultDecider([_ByDestination()], seed=1)

    def script(machine):
        machine.sent_at = machine.now
        machine.broadcast([1, 2, 3, 4], msg)

    async def scenario():
        runtimes = await _cluster(4, script, fault_decider=decider)
        sender, dropped, doubled, delayed, plain = runtimes
        try:
            await _until(
                lambda: len(doubled.machine.received) == 2
                and plain.machine.received
                and delayed.machine.received
            )
            assert delayed.machine.received_at[0] - sender.machine.sent_at >= 150.0
            assert len(calls) == 1
            assert not dropped.machine.received
            assert doubled.machine.received == [(0, msg), (0, msg)]
            assert delayed.machine.received == plain.machine.received == [(0, msg)]
            assert sender.sent_messages == 4 and sender.dropped_messages == 0
            assert (decider.dropped, decider.duplicated, decider.delayed) == (1, 1, 1)
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_a_burst_to_one_peer_arrives_in_order_in_fewer_reads(monkeypatch):
    feeds = _count_feeds(monkeypatch)
    burst = [_block_request(number) for number in range(200)]

    def script(machine):
        for msg in burst:
            machine.send(1, msg)

    async def scenario():
        runtimes = await _cluster(1, script)
        try:
            await _until(lambda: len(runtimes[1].machine.received) == len(burst))
            assert [msg for _, msg in runtimes[1].machine.received] == burst
            assert runtimes[0].sent_messages == len(burst)
            # The hello and the burst: a handful of reads, not one per frame.
            assert sum(feeds) == len(burst) + 1
            assert len(feeds) < len(burst) // 10
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_one_segment_reaches_the_machine_whole_before_the_loop_turns(monkeypatch):
    """The read loop's only ``await`` is the read: frames that arrive together
    are all handed to ``on_message`` before anything the first of them put on
    the loop with ``call_soon`` runs."""
    feeds = _count_feeds(monkeypatch)
    burst = [ClientReply(0, 7, tx_id, 0.5) for tx_id in range(16)]
    delivered_when_the_loop_turned = []

    class SchedulesOnFirstDelivery(Scripted):
        def on_message(self, sender, payload):
            super().on_message(sender, payload)
            if len(self.received) == 1:
                asyncio.get_running_loop().call_soon(
                    lambda: delivered_when_the_loop_turned.append(len(self.received))
                )

    async def scenario():
        runtime = AsyncioRuntime(SchedulesOnFirstDelivery(1, WallClock()))
        host, port = await runtime.start_server()
        runtime.start_machine()
        _reader, writer = await asyncio.open_connection(host, port)
        try:
            frames = [encode_frame(asyncio_net.encode_message(msg)) for msg in burst]
            writer.write(encode_hello(0) + b"".join(frames))  # under 1 KiB: one segment
            await _until(lambda: bool(delivered_when_the_loop_turned))
            assert feeds == [1 + len(burst)]  # the hello and the burst, one read
            assert delivered_when_the_loop_turned == [len(burst)]
            assert runtime.machine.received == [(0, msg) for msg in burst]
        finally:
            writer.close()
            await writer.wait_closed()
            await runtime.close()

    asyncio.run(scenario())


def test_a_stalled_peer_backs_up_the_outbox_not_the_transport(monkeypatch):
    """One write stops at the stream's high-water mark.

    Behind a peer that stops reading, at most the mark plus one batch sits
    in the transport; the rest waits in the outbox, where drop-oldest still
    sheds the stalest frame for the freshest.
    """
    bound, body = 64, b"\0" * 8192
    monkeypatch.setattr(asyncio_net, "MAX_OUTBOUND_QUEUE", bound)
    writers = _capture_small_buffered_connections(monkeypatch)
    received, reading = [], asyncio.Event()

    async def stalled_peer(reader, writer):
        try:
            await reading.wait()
            decoder = FrameDecoder()
            while data := await reader.read(1 << 16):
                received.extend(int.from_bytes(frame[:4], "big") for frame in decoder.feed(data))
        finally:
            writer.close()

    async def scenario():
        server = await asyncio.start_server(stalled_peer, "127.0.0.1", 0)
        server.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        runtime = AsyncioRuntime(Scripted(0, WallClock()))
        runtime.set_peers({9: server.sockets[0].getsockname()[:2]})
        sequence = 0

        def enqueue(count):
            nonlocal sequence
            for _ in range(count):
                runtime._enqueue(9, encode_frame(sequence.to_bytes(4, "big") + body))
                sequence += 1

        try:
            enqueue(bound)  # a full outbox before the sender first runs
            await _until(lambda: bool(writers))
            transport = writers[0].transport
            _low, high_water = transport.get_write_buffer_limits()
            limit = high_water + (high_water + len(body) + 8)
            most = 0
            while runtime.dropped_messages == 0:  # until the kernel's buffers are full too
                assert sequence < 8192, "the peer never stalled the sender"
                await asyncio.sleep(0)
                most = max(most, transport.get_write_buffer_size())
                enqueue(4)
            enqueue(bound)
            assert most <= limit and transport.get_write_buffer_size() <= limit
            kept = [int.from_bytes(frame[4:8], "big") for frame in runtime._queues[9].frames]
            assert kept == list(range(sequence - bound, sequence))  # the freshest survive
            assert runtime.sent_messages == sequence
            reading.set()
            await _until(lambda: received[-1:] == [sequence - 1])
            numbered = received[1:]  # after the hello
            assert numbered == sorted(numbered) and numbered[-bound:] == kept
            assert len(numbered) == sequence - runtime.dropped_messages
        finally:
            reading.set()
            await runtime.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_close_returns_behind_a_peer_that_stopped_reading(monkeypatch):
    """``close()`` drops what the transport still holds for a peer that will
    never take it; waiting for the flush was waiting for ever."""
    writers = _capture_small_buffered_connections(monkeypatch)
    release = asyncio.Event()

    async def deaf_peer(reader, writer):
        try:
            await release.wait()  # accepts, then never reads
        finally:
            writer.close()

    async def scenario():
        server = await asyncio.start_server(deaf_peer, "127.0.0.1", 0)
        server.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        runtime = AsyncioRuntime(Scripted(0, WallClock()))
        runtime.set_peers({9: server.sockets[0].getsockname()[:2]})
        try:
            for _ in range(256):  # 2 MiB: far past both kernel buffers and the mark
                runtime._enqueue(9, encode_frame(b"\0" * 8192))
            await _until(lambda: bool(writers))
            transport = writers[0].transport
            await _until(lambda: transport.get_write_buffer_size() > 0)
            await asyncio.sleep(0.1)  # whatever the kernel will take, it has taken
            assert transport.get_write_buffer_size() > 0 and runtime._queues[9].frames
            sock = writers[0].get_extra_info("socket")
            await asyncio.wait_for(runtime.close(), timeout=1.0)
            assert sock.fileno() == -1
        finally:
            release.set()
            server.close()
            await server.wait_closed()
        await asyncio.sleep(0.05)  # the released peer's handler unwinds
        stray = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
        assert stray == []

    asyncio.run(scenario())


# -- a flush writes to an idle peer; a busy or broken link queues --------------------


async def _linked(runtimes, first):
    """Send ``first`` from pid 0 to pid 1 and wait for it: the link is up."""
    sender, receiver = runtimes
    sender.execute([Send((1,), first)])
    await _until(lambda: len(receiver.machine.received) == 1)
    outbox = sender._queues[1]
    assert outbox.idle() is not None
    return outbox


def test_a_flush_writes_its_frames_for_an_idle_peer_at_once_in_one_write():
    """No loop turn and no sender wake-up between a flush and the socket."""
    first, second = _block_request(1), _block_request(2)
    rows = [_request(1), _request(2)]

    async def scenario():
        runtimes = await _cluster(1, None)
        sender, receiver = runtimes
        try:
            outbox = await _linked(runtimes, first)
            transport = outbox.link[1]
            with mock.patch.object(transport, "write", wraps=transport.write) as write:
                sender.execute([Send((1,), second), *(Send((1,), row) for row in rows)])
                (written,), _ = write.call_args  # before anything awaits
            assert write.call_count == 1 and not outbox.frames
            assert written == encode_frame(asyncio_net.encode_message(second)) + encode_frame(
                asyncio_net.encode_message(ClientRequests.of(rows))
            )
            await _until(lambda: len(receiver.machine.received) == 4)
            assert [msg for _, msg in receiver.machine.received] == [first, second, *rows]
            assert sender.sent_messages == 4
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_a_flush_fills_an_idle_transport_only_to_the_mark_and_queues_the_rest(monkeypatch):
    """A large flush (a catch-up burst, say) writes up to the stream's
    high-water mark, one frame past it at most, as the sender's batch
    does; the rest waits in the outbox, where drop-oldest can shed it,
    and arrives after the written frames."""
    mark = 512
    real_open = asyncio.open_connection

    async def small_mark_open(host, port):
        reader, writer = await real_open(host, port)
        writer.transport.set_write_buffer_limits(high=mark)
        return reader, writer

    monkeypatch.setattr(asyncio_net.asyncio, "open_connection", small_mark_open)
    first = _block_request(0)
    burst = [_block_request(number) for number in range(1, 41)]
    frame = len(encode_frame(asyncio_net.encode_message(first)))

    async def scenario():
        runtimes = await _cluster(1, None)
        sender, receiver = runtimes
        try:
            outbox = await _linked(runtimes, first)
            transport = outbox.link[1]
            assert outbox.high_water == mark and transport.get_write_buffer_size() == 0
            with mock.patch.object(transport, "write", wraps=transport.write) as write:
                sender.execute([Send((1,), msg) for msg in burst])
                (written,), _ = write.call_args
            assert write.call_count == 1
            assert mark <= len(written) < mark + frame
            assert len(written) + frame * len(outbox.frames) == frame * len(burst)
            await _until(lambda: len(receiver.machine.received) == 1 + len(burst))
            assert [msg for _, msg in receiver.machine.received] == [first, *burst]
            assert sender.dropped_messages == 0
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_a_later_flush_never_overtakes_frames_still_in_the_outbox():
    """A frame the sender has not written yet (as behind a transport that has
    just drained, before the sender runs again) keeps the link busy: the
    next flush queues behind it instead of writing past it."""
    first, waiting, later = (_block_request(number) for number in range(3))

    async def scenario():
        runtimes = await _cluster(1, None)
        sender, receiver = runtimes
        try:
            outbox = await _linked(runtimes, first)
            outbox.frames.append(encode_frame(asyncio_net.encode_message(waiting)))
            sender.execute([Send((1,), later)])
            assert len(outbox.frames) == 2  # queued behind it, nothing written
            await _until(lambda: len(receiver.machine.received) == 3)
            assert [msg for _, msg in receiver.machine.received] == [first, waiting, later]
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_a_frame_sent_after_the_peer_hung_up_goes_out_on_the_next_connection():
    """A write into a connection the peer closed would be lost, and would
    leave the sender asleep on a dead link: the frame waits in the outbox,
    and the woken sender reconnects and delivers it."""
    before, after = _block_request(1), _block_request(2)

    async def scenario():
        runtimes = await _cluster(1, None)
        sender, receiver = runtimes
        try:
            outbox = await _linked(runtimes, before)
            reader, transport = outbox.link
            for inbound in list(receiver._inbound):
                inbound.close()  # the peer hangs up
            await _until(lambda: reader.at_eof() or transport.is_closing())
            sender.execute([Send((1,), after)])
            assert outbox.idle() is None and len(outbox.frames) == 1
            await _until(lambda: len(receiver.machine.received) == 2)
            assert receiver.machine.received[1] == (0, after)
            assert outbox.link is not None and outbox.link[1] is not transport
            assert sender.dropped_messages == 0
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


class Charging(Scripted):
    """Emits one effect per delivery, so every flush has something to carry."""

    def on_message(self, sender, payload):
        super().on_message(sender, payload)
        self.charge(0.25)


async def _one_segment_to(runtime, *frames):
    """Connect as pid 0 and write the hello and ``frames`` in one segment."""
    host, port = await runtime.start_server()
    runtime.start_machine()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(encode_hello(0) + b"".join(frames))
    return reader, writer


def test_one_read_is_one_entry_and_one_flush(monkeypatch):
    feeds = _count_feeds(monkeypatch)
    burst = [_block_request(number) for number in range(16)]
    flushes = []

    async def scenario():
        runtime = AsyncioRuntime(Charging(1, WallClock()))
        runtime.execute = flushes.append
        _reader, writer = await _one_segment_to(
            runtime, *(encode_frame(asyncio_net.encode_message(msg)) for msg in burst)
        )
        try:
            await _until(lambda: len(runtime.machine.received) == len(burst))
            assert feeds == [1 + len(burst)]  # the hello and the burst, one read
            assert [msg for _, msg in runtime.machine.received] == burst
            assert len(flushes) == 1
            assert [type(effect) for effect in flushes[0]] == [ChargeCpu] * len(burst)
        finally:
            writer.close()
            await writer.wait_closed()
            await runtime.close()

    asyncio.run(scenario())


def test_a_malformed_frame_rejects_the_connection_after_the_valid_prefix(monkeypatch):
    feeds = _count_feeds(monkeypatch)
    valid = [_block_request(number) for number in range(3)]
    frames = [encode_frame(asyncio_net.encode_message(msg)) for msg in valid]
    junk = encode_frame(b"\xff junk")  # an unknown message tag
    after = encode_frame(asyncio_net.encode_message(_block_request(99)))

    flushes = []

    async def scenario():
        runtime = AsyncioRuntime(Charging(1, WallClock()))
        runtime.execute = flushes.append
        reader, writer = await _one_segment_to(runtime, *frames, junk, after)
        try:
            assert await asyncio.wait_for(reader.read(), timeout=10.0) == b""  # closed on us
            assert feeds == [1 + len(valid) + 2]  # everything arrived in one read
            assert runtime.machine.received == [(0, msg) for msg in valid]
            # The prefix's effects were flushed, once, on the way out.
            assert flushes == [[ChargeCpu(0.25)] * len(valid)]
            assert runtime.rejected_connections == 1
        finally:
            writer.close()
            await writer.wait_closed()
            await runtime.close()

    asyncio.run(scenario())


def test_on_messages_returns_the_flushed_effects_like_on_message():
    machine = Charging(1, WallClock())
    replies = [ClientReply(0, 7, tx_id, 0.5) for tx_id in range(3)]
    assert machine.on_messages(0, replies) == [ChargeCpu(0.25)] * 3
    assert machine.on_message(0, replies[0]) == [ChargeCpu(0.25)]
    assert machine.on_messages(0, []) == []
    assert [msg for _, msg in machine.received] == [*replies, replies[0]]


class ServesReplies(Charging):
    """Names the packed reply row in ``SERVICE_HANDLERS``."""

    SERVICE_HANDLERS = {ClientReplies: "on_message"}


def test_on_messages_hands_a_packed_frame_whole_only_to_a_machine_that_serves_it():
    replies = [ClientReply(0, 7, tx_id, 0.5) for tx_id in range(3)]
    packed = ClientReplies.of(replies)
    rows = Charging(1, WallClock())
    assert rows.on_messages(0, [packed, replies[0]]) == [ChargeCpu(0.25)] * 4
    assert [msg for _, msg in rows.received] == [*replies, replies[0]]
    whole = ServesReplies(1, WallClock())
    assert whole.on_messages(0, [packed, replies[0]]) == [ChargeCpu(0.25)] * 2
    assert [msg for _, msg in whole.received] == [packed, replies[0]]
    # Serving the reply row does not serve the packed request row.
    requests = ClientRequests.of([ClientRequest(7, Transaction(7, 0, 0, 0.0, 0))] * 2)
    whole.on_messages(0, [requests])
    assert [msg for _, msg in whole.received][2:] == list(requests)


# -- the inbound reader: one reused buffer per connection ------------------------


def _record_buffers(monkeypatch):
    """Every buffer an inbound connection hands the transport to read into."""
    handed = []
    real = asyncio_net._Inbound.get_buffer

    def recording(self, sizehint):
        buffer = real(self, sizehint)
        handed.append(buffer)
        return buffer

    monkeypatch.setattr(asyncio_net._Inbound, "get_buffer", recording)
    return handed


def test_every_read_of_a_connection_lands_in_the_same_buffer(monkeypatch):
    handed = _record_buffers(monkeypatch)
    feeds = _count_feeds(monkeypatch)
    replies = [ClientReply(0, 7, tx_id, 0.5) for tx_id in range(4)]

    async def scenario():
        runtime = AsyncioRuntime(Scripted(1, WallClock()))
        _reader, writer = await _one_segment_to(runtime)
        try:
            for count, reply in enumerate(replies, start=1):
                writer.write(encode_frame(asyncio_net.encode_message(reply)))
                await writer.drain()
                await _until(lambda count=count: len(runtime.machine.received) == count)
            assert len(feeds) >= len(replies)  # one read per write, at least
            assert len(handed) >= len(feeds)
            assert all(buffer is handed[0] for buffer in handed)
            assert [msg for _, msg in runtime.machine.received] == replies
        finally:
            writer.close()
            await writer.wait_closed()
            await runtime.close()

    asyncio.run(scenario())


def test_a_frame_larger_than_the_buffer_arrives_over_several_reads(monkeypatch):
    handed = _record_buffers(monkeypatch)
    feeds = _count_feeds(monkeypatch)
    txs = tuple(Transaction(3, i, 1024, 0.5, i % 5) for i in range(400))
    response = BlockResponse(create_leaf(b"\x05" * 32, 9, txs))
    frame = encode_frame(asyncio_net.encode_message(response))

    async def scenario():
        runtime = AsyncioRuntime(Scripted(1, WallClock()))
        _reader, writer = await _one_segment_to(runtime, frame)
        try:
            await _until(lambda: bool(runtime.machine.received))
            assert len(frame) > len(handed[0])
            assert len(feeds) > 1 and sum(feeds) == 2  # the hello and the block
            ((sender, received),) = runtime.machine.received
            assert sender == 0 and received == response
            assert tuple(received.block.transactions) == txs
            assert received.block.hash == response.block.hash
        finally:
            writer.close()
            await writer.wait_closed()
            await runtime.close()

    asyncio.run(scenario())


def test_a_peer_eof_removes_its_transport():
    async def scenario():
        runtime = AsyncioRuntime(Scripted(1, WallClock()))
        _reader, writer = await _one_segment_to(runtime)
        try:
            await _until(lambda: len(runtime._inbound) == 1)
            writer.write_eof()
            await _until(lambda: not runtime._inbound)
        finally:
            writer.close()
            await writer.wait_closed()
            await runtime.close()

    asyncio.run(scenario())


def test_close_leaves_no_inbound_transport():
    async def scenario():
        runtime = AsyncioRuntime(Scripted(1, WallClock()))
        reader, writer = await _one_segment_to(runtime)
        host, port = runtime.host, runtime.port
        second_reader, second_writer = await asyncio.open_connection(host, port)
        try:
            await _until(lambda: len(runtime._inbound) == 2)
            await runtime.close()
            assert runtime._inbound == set()
            for peer in (reader, second_reader):  # both connections are gone
                try:
                    assert await asyncio.wait_for(peer.read(), timeout=10.0) == b""
                except ConnectionResetError:
                    pass  # aborted with bytes unread: a reset, not a FIN
        finally:
            for peer_writer in (writer, second_writer):
                peer_writer.close()
        await asyncio.sleep(0.05)

    asyncio.run(scenario())


# -- client rows travel as columns ------------------------------------------------


def _request(tx_id, payload=0):
    return ClientRequest(7, Transaction(7, tx_id, payload, 0.5, tx_id % 3))


def _reply(tx_id, replica=0):
    return ClientReply(replica, 7, tx_id, 0.5)


def test_a_flush_packs_each_peers_rows_in_order_around_other_frames(monkeypatch):
    """Rows to one peer wait for its next other frame, or the flush's end:
    the peer's order is the effects' order, and the counters count rows."""
    calls = _count_encodes(monkeypatch)
    feeds = _count_feeds(monkeypatch)
    sent = [_request(1), _request(2), _block_request(1), _reply(3), _reply(4), _request(5),
            _request(6), _request(7)]

    def script(machine):
        for msg in sent:
            machine.send(1, msg)

    async def scenario():
        runtimes = await _cluster(1, script)
        try:
            await _until(lambda: len(runtimes[1].machine.received) == len(sent))
            assert [msg for _, msg in runtimes[1].machine.received] == sent
            assert [type(msg) for msg in calls] == [
                ClientRequests, BlockRequest, ClientReplies, ClientRequests
            ]
            assert sum(feeds) == 1 + 4  # the hello, then four frames
            assert runtimes[0].sent_messages == len(sent)
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_a_group_of_rows_is_encoded_once_for_every_peer_it_goes_to(monkeypatch):
    """A client's requests to every replica: one packed encoding, one
    frame per replica; a lone row is today's frame, byte for byte."""
    calls = _count_encodes(monkeypatch)
    requests = [_request(tx_id) for tx_id in range(5)]
    lone = _reply(9)

    def script(machine):
        for request in requests:
            for dest in (1, 2, 3):
                machine.send(dest, request)
        machine.send(1, lone)

    async def scenario():
        runtimes = await _cluster(3, None)
        sender, queued = runtimes[0], []
        real = sender._enqueue

        def recording(dest, frame, rows=1):
            queued.append((dest, frame, rows))
            real(dest, frame, rows)

        sender._enqueue = recording
        try:
            sender.machine.script = script
            sender.machine.start()  # one entry point: one flush
            await _until(lambda: len(runtimes[1].machine.received) == len(requests) + 1)
            for runtime in runtimes[1:]:
                assert [msg for _, msg in runtime.machine.received][: len(requests)] == requests
            assert runtimes[1].machine.received[-1] == (0, lone)
            assert [type(msg) for msg in calls] == [ClientRequests, ClientReply]
            packed = [frame for _dest, frame, rows in queued if rows == len(requests)]
            assert len(packed) == 3 and len(set(packed)) == 1
            assert (1, encode_frame(asyncio_net.encode_message(lone)), 1) in queued
            assert sender.sent_messages == 3 * len(requests) + 1
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_rows_past_the_frame_cap_split_into_several_frames(monkeypatch):
    """A catching-up client's burst of 1 KiB requests packs to more than
    ``MAX_FRAME_BYTES``: it leaves as several frames, every row in order."""
    feeds = _count_feeds(monkeypatch)
    burst = [_request(tx_id, payload=1024) for tx_id in range(MAX_FRAME_BYTES // 1024 + 64)]

    def script(machine):
        for msg in burst:
            machine.send(1, msg)

    async def scenario():
        runtimes = await _cluster(1, script)
        try:
            await _until(lambda: len(runtimes[1].machine.received) == len(burst))
            assert [msg for _, msg in runtimes[1].machine.received] == burst
            assert sum(feeds) - 1 > 1  # past the hello: more than one frame
            assert runtimes[0].sent_messages == len(burst)
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


async def _unreachable_peer():
    """An address nothing listens on: a sender to it never drains its outbox."""
    server = await asyncio.start_server(lambda _reader, _writer: None, "127.0.0.1", 0)
    address = server.sockets[0].getsockname()[:2]
    server.close()
    await server.wait_closed()
    return address


class _Counting(FaultRule):
    """Decides nothing; counts what it was asked about."""

    def __init__(self):
        self.asked = []

    def decide(self, src, dst, payload, now, rng):
        self.asked.append((dst, payload))


def test_a_reply_effect_joins_the_packed_replies_and_each_row_is_decided():
    replies = [_reply(tx_id) for tx_id in range(3)]

    async def scenario(decider):
        runtime = AsyncioRuntime(Scripted(0, WallClock()), fault_decider=decider)
        runtime.set_peers({9: await _unreachable_peer()})
        try:
            runtime.execute([Send((9,), replies[0]), Reply([(9, r) for r in replies[1:]], 0.0, 51)])
            return runtime.sent_messages, list(runtime._queues[9].frames)
        finally:
            await runtime.close()

    rule = _Counting()
    for decider in (None, FaultDecider([rule], seed=1)):
        sent, [frame] = asyncio.run(scenario(decider))
        assert sent == len(replies)
        assert frame == encode_frame(asyncio_net.encode_message(ClientReplies.of(replies)))
    assert rule.asked == [(9, reply) for reply in replies]


def test_shedding_a_packed_frame_counts_its_rows(monkeypatch):
    monkeypatch.setattr(asyncio_net, "MAX_OUTBOUND_QUEUE", 2)
    replies = [_reply(tx_id) for tx_id in range(5)]

    async def scenario():
        runtime = AsyncioRuntime(Scripted(0, WallClock()))
        runtime.set_peers({9: await _unreachable_peer()})
        try:
            runtime.execute([Send((9,), reply) for reply in replies])
            runtime.execute([Send((9,), _block_request(1))])
            assert (runtime.sent_messages, runtime.dropped_messages) == (6, 0)
            runtime.execute([Send((9,), _block_request(2))])  # sheds the packed frame
            assert (runtime.sent_messages, runtime.dropped_messages) == (7, len(replies))
            assert len(runtime._queues[9].frames) == 2
        finally:
            await runtime.close()

    asyncio.run(scenario())


def test_a_held_back_machine_counts_a_dropped_packed_frame_by_its_rows():
    replies = [_reply(tx_id) for tx_id in range(5)]
    frame = encode_frame(asyncio_net.encode_message(ClientReplies.of(replies)))

    async def scenario():
        runtime = AsyncioRuntime(Scripted(1, WallClock()))
        host, port = await runtime.start_server()  # never started: held back
        _reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(encode_hello(0) + frame + encode_frame(
                asyncio_net.encode_message(_block_request(1))
            ))
            await _until(lambda: runtime.dropped_messages == len(replies) + 1)
            assert runtime.machine.received == []
        finally:
            writer.close()
            await writer.wait_closed()
            await runtime.close()

    asyncio.run(scenario())


class _Chaos(FaultRule):
    """Seeded drops, duplicates and a fixed delay, so delayed frames leave
    in the order they were decided."""

    DELAY_MS = 4.0

    def decide(self, src, dst, payload, now, rng):
        if src == dst:
            return None
        draw = rng.random()
        if draw < 0.15:
            return DROP
        if draw < 0.3:
            return FaultAction(duplicates=1)
        if draw < 0.45:
            return FaultAction(extra_delay_ms=self.DELAY_MS)
        if draw < 0.55:
            return FaultAction(duplicates=1, extra_delay_ms=self.DELAY_MS)
        return None


class _Transport:
    """The little of a transport an inbound protocol touches."""

    def get_extra_info(self, name):
        return None

    def close(self):
        raise AssertionError("a well-formed stream was rejected")


def _payload(kind, number):
    if kind == "request":
        return _request(number, payload=16 * (number % 2))
    if kind == "reply":
        return ClientReply(number % 3, 7, number, 0.5, list(AdmissionVerdict)[number % 3])
    return _block_request(number)


async def _deliveries(sends, peers, decider, as_reply=False):
    """Run ``sends`` - ``(payload, dest)`` in effect order, dest 0 is the
    sender itself - as one flush, the replies as ``Reply`` effects if
    ``as_reply``; hand each peer's queued frames to a receiving runtime's
    inbound protocol.  Returns what every machine received, the sender's
    row count and the frames each peer read."""
    clock = WallClock()

    def script(machine):
        for payload, dest in sends:
            machine.send(dest, payload)

    def script_with_replies(machine):
        # Each run of consecutive replies is one Reply effect, as a replica emits.
        for is_reply, run in itertools.groupby(sends, lambda send: type(send[0]) is ClientReply):
            if is_reply:
                machine._emit(Reply([(dest, reply) for reply, dest in run], 0.0, 51))
            else:
                for payload, dest in run:
                    machine.send(dest, payload)

    sender = AsyncioRuntime(
        Scripted(0, clock, script_with_replies if as_reply else script), fault_decider=decider
    )
    address = await _unreachable_peer()
    sender.set_peers({pid: address for pid in range(1, peers + 1)})
    try:
        sender.start_machine()
        await asyncio.sleep(3 * _Chaos.DELAY_MS / 1000.0)  # the delayed frames, the self-sends
        received = {0: sender.machine.received}
        frames = 0
        for pid in range(1, peers + 1):
            outbox = sender._queues.get(pid)
            data = encode_hello(0) + b"".join(outbox.frames if outbox else ())
            receiver = AsyncioRuntime(Scripted(pid, clock))
            receiver._machine_started = True
            inbound = asyncio_net._Inbound(receiver)
            inbound.transport = _Transport()
            frames += len(FrameDecoder().feed(data)) - 1
            chunk = len(inbound.buffer)
            for start in range(0, len(data), chunk):
                piece = data[start : start + chunk]
                inbound.buffer[: len(piece)] = piece
                inbound.buffer_updated(len(piece))
            received[pid] = receiver.machine.received
        return received, sender.sent_messages, frames
    finally:
        await sender.close()


_SENDS = st.integers(min_value=2, max_value=4).flatmap(
    lambda peers: st.tuples(
        st.just(peers),
        st.lists(
            st.tuples(
                st.sampled_from(["request", "reply", "block"]),
                st.lists(st.integers(min_value=0, max_value=peers), min_size=1, max_size=4),
            ),
            max_size=30,
        ),
    )
)


@given(case=_SENDS, seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)))
@settings(max_examples=40, deadline=None)
def test_packing_delivers_what_a_per_message_host_delivers(case, seed):
    """Every peer receives the sequence a host without packing delivers -
    duplicates and drops included - from the same per-row fault decisions,
    and each frame it reads is one ``decode_message`` call.  The packing
    host gets its replies as ``Reply`` effects, the other as sends."""
    peers, actions = case
    sends = [
        (payload, dest)
        for number, (kind, dests) in enumerate(actions)
        for payload in [_payload(kind, number)]  # one object per action, sent to each dest
        for dest in dests
    ]
    deciders = [None if seed is None else FaultDecider([_Chaos()], seed) for _ in range(2)]
    decodes = []
    real_decode = asyncio_net.decode_message

    def counting(data):
        decodes.append(data)
        return real_decode(data)

    with mock.patch.object(asyncio_net, "decode_message", counting):
        packed, packed_rows, packed_frames = asyncio.run(
            _deliveries(sends, peers, deciders[0], as_reply=True)
        )
        assert len(decodes) == packed_frames
        with mock.patch.object(asyncio_net, "PACKED", {}):
            reference, reference_rows, reference_frames = asyncio.run(
                _deliveries(sends, peers, deciders[1])
            )
    assert packed == reference
    assert packed_rows == reference_rows == reference_frames
    assert packed_frames <= reference_frames
    if seed is not None:
        # The same decision at every (link, sequence) coordinate, and each
        # is the decision table's - what ``decision_digest`` fingerprints.
        assert deciders[0].records == deciders[1].records
        table = {
            (entry.src, entry.dst, entry.seq): entry
            for entry in decision_table([_Chaos()], seed, range(peers + 1), horizon=len(sends))
        }
        for record in deciders[0].records:
            assert table[(record.src, record.dst, record.seq)] == record
