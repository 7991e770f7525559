"""Socket-runtime resilience: crash-restart, fault hooks, clean shutdown.

In-process counterparts of the ``repro net-chaos`` scenario: real
asyncio TCP sockets on ephemeral localhost ports, with process death
modelled by closing a runtime and discarding its machine (volatile
state gone - only the :class:`FileSealStore` files survive, as under
SIGKILL).  A respawned replica restores its durable record whatever the
protocol, with or without a checker.
"""

import asyncio

from repro.core.faults import FaultPlan
from repro.runtime import asyncio_net
from repro.runtime.asyncio_net import (
    AsyncioRuntime,
    WallClock,
    _Outbox,
    build_machine,
    health_snapshot,
)
from repro.runtime.framing import MAX_FRAME_BYTES, encode_frame
from repro.runtime.resilience.durable import DurableSealer
from repro.runtime.resilience.transport import FaultDecider
from repro.tee.sealed import FileSealStore


def small_machine(pid, n=4, seed=21, timeout_ms=500.0, clock=None, protocol="damysus"):
    return build_machine(
        protocol, pid, n, clock or WallClock(), seed=seed, timeout_ms=timeout_ms,
        payload_bytes=16, block_size=4,
    )


async def start_cluster(n=4, seed=21, stores=None, deciders=None, timeout_ms=500.0,
                        protocol="damysus"):
    """Boot an n-replica cluster on ephemeral ports; returns the runtimes."""
    clock = WallClock()
    runtimes = []
    for pid in range(n):
        machine = small_machine(pid, n, seed, timeout_ms, clock, protocol)
        sealer = None
        if stores is not None:
            sealer = DurableSealer(machine, stores[pid])
            sealer.restore()
        runtimes.append(
            AsyncioRuntime(
                machine,
                fault_decider=None if deciders is None else deciders[pid],
                sealer=sealer,
            )
        )
    addresses = {}
    for pid, runtime in enumerate(runtimes):
        addresses[pid] = await runtime.start_server()
    for runtime in runtimes:
        runtime.set_peers(addresses)
    for runtime in runtimes:
        runtime.start_machine()
    return runtimes, addresses


async def wait_commits(runtimes, minimum, timeout_s=30.0, pids=None):
    pids = list(pids if pids is not None else range(len(runtimes)))
    deadline = asyncio.get_running_loop().time() + timeout_s
    while asyncio.get_running_loop().time() < deadline:
        if all(runtimes[p].committed_blocks >= minimum for p in pids):
            return True
        await asyncio.sleep(0.02)
    return False


def test_crash_restart_resumes_from_durable_seal(tmp_path):
    """A replica killed mid-run restarts from its sealed files on the same
    port, rejoins, and resumes committing at a step no lower than the one
    it sealed - the in-process mirror of net-chaos kill/restart."""

    async def scenario():
        stores = [FileSealStore(tmp_path / f"seal-{pid}") for pid in range(4)]
        runtimes, addresses = await start_cluster(stores=stores)
        assert await wait_commits(runtimes, 2)

        victim = runtimes[3]
        sealed_view = victim.machine.checker.step.view
        port = victim.port
        await victim.close()  # death: volatile state discarded below
        del victim

        # Survivors keep committing without the fourth replica.
        target = max(rt.committed_blocks for rt in runtimes[:3]) + 2
        assert await wait_commits(runtimes[:3], target)

        # Restart from the durable seal, same port, fresh everything else.
        machine = small_machine(3)
        sealer = DurableSealer(machine, stores[3])
        assert sealer.restore()
        assert machine.checker.step.view >= sealed_view  # no rollback
        reborn = AsyncioRuntime(machine, port=port, sealer=sealer)
        await reborn.start_server()
        reborn.set_peers(addresses)
        reborn.start_machine()
        runtimes[3] = reborn

        try:
            assert await wait_commits([reborn], 1)
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_a_killed_hotstuff_replica_respawns_with_its_certificates(tmp_path):
    """A protocol without a checker keeps its lock over TCP too: a
    HotStuff replica killed after it locked comes back from its seal
    directory with its pre-kill ``locked_qc`` and ``prepare_qc``, says so
    in its health sample, and commits again."""

    async def scenario():
        stores = [FileSealStore(tmp_path / f"seal-{pid}") for pid in range(4)]
        runtimes, addresses = await start_cluster(stores=stores, protocol="hotstuff")
        try:
            assert await wait_commits(runtimes, 3)
            victim = runtimes[3]
            await victim.close()  # death: only the seal directory survives
            killed = victim.machine
            assert killed.locked_qc.view > 0  # it had locked
            reborn = small_machine(3, protocol="hotstuff")
            sealer = DurableSealer(reborn, stores[3])
            restored = sealer.restore()
            assert (reborn.locked_qc, reborn.prepare_qc) == (killed.locked_qc, killed.prepare_qc)
            runtimes[3] = AsyncioRuntime(reborn, port=victim.port, sealer=sealer)
            health = health_snapshot(reborn, runtimes[3], 0.0, restored)
            assert health["restored_from_seal"] is True
            await runtimes[3].start_server()
            runtimes[3].set_peers(addresses)
            runtimes[3].start_machine()
            assert await wait_commits([runtimes[3]], 1)
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_crashed_replica_rejoins_at_cluster_speed_on_sockets():
    """The simulator's crash shape over TCP (damysus, n = 3): a replica
    that crashes and comes back announces itself, is carried to the
    cluster's view by the re-sent new-views, and fetches what it missed -
    so the cluster is back at full speed at once, not at two commits per
    backed-off timeout (the parent commit's rate, for ever)."""

    async def scenario():
        runtimes, _ = await start_cluster(n=3)
        machines = [runtime.machine for runtime in runtimes]
        try:
            assert await wait_commits(runtimes, 5)
            machines[1].crash()
            # The survivors wait out one timeout per view replica 1 leads.
            target = max(runtimes[pid].committed_blocks for pid in (0, 2)) + 4
            assert await wait_commits(runtimes, target, pids=(0, 2))
            assert machines[0].view - machines[1].view >= 2
            machines[1].recover()
            # Nobody times out any more: dozens of views pass inside what
            # was one backed-off view timer a moment ago.
            back = max(runtime.committed_blocks for runtime in runtimes) + 40
            assert await wait_commits(runtimes, back, timeout_s=2.0)
            views = [machine.view for machine in machines]
            assert max(views) - min(views) <= 2, views
            chains = [
                [block.hash for block in machine.ledger.executed] for machine in machines
            ]
            shortest = min(len(chain) for chain in chains)
            assert max(len(chain) for chain in chains) - shortest <= 2
            assert chains[0][:shortest] == chains[1][:shortest] == chains[2][:shortest]
            assert machines[1].mempool.pending() == 0
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_partition_stalls_and_heals_in_process():
    """A 2/2 partition installed in every sender's decider stalls commits;
    clearing the rules (the live-reload path) lets them resume."""

    async def scenario():
        deciders = [
            FaultDecider(FaultPlan().partition({0, 1}, {2, 3}).rules, seed=5)
            for _ in range(4)
        ]
        # Start already partitioned: nothing must commit.
        runtimes, _ = await start_cluster(deciders=deciders)
        try:
            assert not await wait_commits(runtimes, 1, timeout_s=2.0)
            assert all(d.counts()["dropped"] > 0 for d in deciders)
            for decider in deciders:
                decider.set_rules(())  # heal
            assert await wait_commits(runtimes, 1)
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_close_leaves_no_pending_tasks_or_sockets():
    """Graceful shutdown: after close(), the loop holds no stray tasks."""

    async def scenario():
        runtimes, _ = await start_cluster()
        assert await wait_commits(runtimes, 1)
        for runtime in runtimes:
            await runtime.close()
        # Give cancelled callbacks one tick to unwind, then audit.
        await asyncio.sleep(0.05)
        stray = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
        assert stray == []
        for runtime in runtimes:
            assert runtime._server is None
            assert not runtime._sender_tasks and not runtime._inbound

    asyncio.run(scenario())


def test_malformed_hello_is_rejected_and_server_survives():
    async def scenario():
        runtimes, addresses = await start_cluster(n=4)
        try:
            host, port = addresses[0]
            # A stranger sends a garbage hello: wrong magic.
            _reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(b"i am not a hello"))
            await writer.drain()
            await asyncio.sleep(0.2)
            assert runtimes[0].rejected_connections >= 1
            writer.close()
            # The cluster is unharmed: commits still happen.
            assert await wait_commits(runtimes, 1)
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_oversized_frame_disconnects_instead_of_buffering():
    async def scenario():
        runtimes, addresses = await start_cluster(n=4)
        try:
            host, port = addresses[0]
            _reader, writer = await asyncio.open_connection(host, port)
            # Announce a frame far above the cap; the payload never needs
            # to arrive - the announcement alone must poison the stream.
            announce = (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
            writer.write(announce)
            await writer.drain()
            await asyncio.sleep(0.2)
            assert runtimes[0].rejected_connections >= 1
            writer.close()
            assert await wait_commits(runtimes, 1)
        finally:
            for runtime in runtimes:
                await runtime.close()

    asyncio.run(scenario())


def test_full_outbound_queue_sheds_the_oldest_frame(monkeypatch):
    monkeypatch.setattr(asyncio_net, "MAX_OUTBOUND_QUEUE", 4)

    async def scenario():
        clock = WallClock()
        machine = build_machine("damysus", 0, 4, clock, seed=1)
        runtime = AsyncioRuntime(machine)
        # Pre-seed the queue so no sender task spawns: the queue alone.
        outbox = runtime._queues[9] = _Outbox()
        frames = [b"frame-%d" % i for i in range(10)]
        for frame in frames:
            runtime._enqueue(9, frame)
        assert runtime.dropped_messages == 6
        assert list(outbox.frames) == frames[-4:]  # freshest survive
        await runtime.close()

    asyncio.run(scenario())
