"""Discrete-event simulator runtime: hosts sans-I/O machines bit-identically.

:class:`MachineProcess` seats one protocol machine on the simulator: it
is what the network registers and delivers to, and it interprets the
machine's effect lists (in emission order, inside the same simulator
event that invoked the handler) onto a single-core CPU model, the
network, the timer wheel and the network's monitor: the effect list is
all the simulator hears from a machine, executions (``Commit``)
included.  Because effect order equals the order the old imperative
handlers performed those calls, every (time, seq) event ordering - and
therefore every benchmark, figure and chaos result - is bit-identical to
the pre-refactor architecture.

:class:`ConsensusSystem` wires one complete simulated deployment and is
the single entry point used by tests, examples and the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.config import SystemConfig
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.crypto.scheme import SignatureScheme
from repro.crypto.schnorr import GROUP_TEST, SchnorrScheme
from repro.core.executor import SafetyOracle
from repro.core.faults import FaultPlan
from repro.core.rng import RngFactory
from repro.errors import SimulationError
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
from repro.runtime.machine import Machine
from repro.sim.events import Event, Simulator
from repro.sim.latency import MatrixLatency, PartialSynchronyLatency
from repro.sim.monitor import ExecutionRecord, Monitor
from repro.sim.network import Network

#: Simulation chunk size (virtual ms) between stop-condition checks.
_RUN_CHUNK_MS = 200.0


class MachineProcess:
    """One machine's seat on the simulator: its network endpoint and its Runtime.

    The seat owns what the simulator adds to a machine - a single-core CPU
    model, the network it sends through and the timer events it armed.
    Identity, the crashed flag, CPU time accounted and the lifecycle are
    the machine's.  A seat learns its network when it is registered via
    :meth:`Network.add_process`; sending before that is an error.
    """

    def __init__(self, machine: Machine, sim: Simulator) -> None:
        self.machine = machine
        self.pid = machine.pid
        self.sim = sim
        self.network: Network | None = None
        # Virtual time until which this seat's (single) CPU is busy.
        # Crypto and TEE costs are charged here so that a loaded leader
        # becomes a bottleneck exactly as on a t2.micro instance.
        self._busy_until = 0.0
        self._timers: dict[int, Event] = {}
        machine.runtime = self

    # -- CPU model and network endpoint --------------------------------------

    def charge(self, cost_ms: float) -> None:
        """Occupy this seat's CPU for ``cost_ms`` of virtual time.

        Charged time delays both the machine's subsequent sends and the
        handling of messages that arrive while it is busy, modelling a
        single-core replica.
        """
        if cost_ms <= 0:
            return
        self._busy_until = max(self._busy_until, self.sim.now) + cost_ms

    def send(self, dests: Sequence[int], payload: Any, size_bytes: int | None = None) -> None:
        """Send ``payload`` to each pid of ``dests``, after any pending CPU work.

        If charged CPU time extends past ``now``, each copy is handed to
        the network only when the CPU frees up - the wire cannot outrun
        the crypto that produced the message - as one posted event per
        destination, the keys a send per destination would get.
        """
        network = self.network
        if network is None:
            raise SimulationError(f"process {self.pid} is not attached to a network")
        if self.machine.crashed:
            return
        sim = self.sim
        wait = self._busy_until - sim.now
        if wait > 0:
            pid = self.pid
            for dest in dests:
                sim.post(wait, network.send, pid, (dest,), payload, size_bytes)
        else:
            network.send(self.pid, dests, payload, size_bytes)

    def deliver(self, sender: int, payload: Any) -> None:
        """Called by the network when a message arrives.

        A message that arrives while the CPU is busy waits in the receive
        queue until the CPU frees up; one that arrives at a crashed
        machine is gone (modelling lost volatile state).
        """
        if self.machine.crashed:
            return
        sim = self.sim
        wait = self._busy_until - sim.now
        if wait > 0:
            sim.post(wait, self.deliver, sender, payload)
            return
        self.machine.on_message(sender, payload)

    # -- Runtime side ------------------------------------------------------

    def execute(self, effects: list[Effect]) -> None:
        """Interpret ``effects`` in order on the simulator.

        Runs inside the simulator event that invoked the machine handler,
        so scheduled deliveries get the same (time, seq) keys as when the
        handler performed the sends itself.  A :class:`Send` is one
        fan-out send to its destinations; a :class:`Reply` plays in one
        loop as the charge-and-send pair per reply it stands for; a
        :class:`Commit` is one execution record in the network's monitor,
        stamped now.
        """
        for effect in effects:
            kind = type(effect)
            if kind is Send:
                self.send(effect.dests, effect.payload, effect.size_bytes)
            elif kind is ChargeCpu:
                self.charge(effect.ms)
            elif kind is SetTimer:
                self._arm_timer(effect.timer_id, effect.delay_ms)
            elif kind is CancelTimer:
                timer = self._timers.pop(effect.timer_id, None)
                if timer is not None:
                    timer.cancel()
            elif kind is Reply:
                self._reply(effect)
            elif kind is Commit:
                self._record(effect)

    def _record(self, effect: Commit) -> None:
        """One execution of ``effect.block`` here, under the block's own view
        (an ancestor executed on a descendant's decision keeps its view)."""
        network = self.network
        if network is None:
            raise SimulationError(f"process {self.pid} is not attached to a network")
        block = effect.block
        network.monitor.record_execution(
            ExecutionRecord(
                self.pid, block.view, block.hash, effect.txs, block.created_at, self.sim.now
            )
        )

    def _reply(self, effect: Reply) -> None:
        """Each reply of ``effect`` charged, then sent behind the CPU.

        The busy clock accumulates as the per-reply charges would move it,
        and a reply still behind it is posted with the wait that charge left.
        """
        sends = effect.sends
        if not sends:
            return
        network = self.network
        if network is None:
            raise SimulationError(f"process {self.pid} is not attached to a network")
        sim = self.sim
        now = sim.now
        cost = effect.cost_ms
        charged = not cost <= 0  # what ``charge`` tests
        size = effect.size_bytes
        busy = self._busy_until
        if charged and busy < now:
            busy = now
        crashed = self.machine.crashed
        pid = self.pid
        for dest, reply in sends:
            if charged:
                busy += cost
            if crashed:
                continue
            wait = busy - now
            if wait > 0:
                sim.post(wait, network.send, pid, (dest,), reply, size)
            else:
                network.send(pid, (dest,), reply, size)
        self._busy_until = busy

    def _arm_timer(self, timer_id: int, delay_ms: float) -> None:
        self._timers[timer_id] = self.sim.schedule(delay_ms, self._timer_fired, timer_id)

    def _timer_fired(self, timer_id: int) -> None:
        self._timers.pop(timer_id, None)
        self.machine.on_timer(timer_id)

    def machine_recovered(self) -> None:
        """A restarted CPU starts out idle."""
        self._busy_until = self.sim.now


@dataclass
class RunResult:
    """Aggregated outcome of one simulated run."""

    protocol: str
    f: int
    num_replicas: int
    duration_ms: float
    committed_blocks: int
    committed_views: int
    throughput_kops: float
    mean_latency_ms: float
    messages_sent: int
    bytes_sent: int
    safe: bool


class ConsensusSystem:
    """One fully wired simulated deployment."""

    def __init__(
        self,
        config: SystemConfig,
        strict_safety: bool = True,
        replica_overrides: dict[int, type] | None = None,
    ) -> None:
        self.config = config
        self.replica_overrides = replica_overrides or {}
        self.spec: ProtocolSpec = get_spec(config.protocol)
        self.num_replicas = self.spec.num_replicas(config.f)
        self.quorum = self.spec.quorum(config.f)
        self.sim = Simulator()
        self.rng = RngFactory(config.seed)
        self.monitor = Monitor()
        self.oracle = SafetyOracle(strict=strict_safety)
        self.scheme = self._build_scheme()
        self.directory = KeyDirectory(self.scheme)
        self.network = Network(
            self.sim, self._build_latency(), self.monitor, fifo=config.fifo_links
        )
        self.replicas: list[BaseReplica] = []
        self.clients: list[Client] = []
        self._build_processes()
        self._started = False

    # -- construction ------------------------------------------------------------

    def _build_scheme(self) -> SignatureScheme:
        if self.config.use_real_crypto:
            return SchnorrScheme(GROUP_TEST)
        return HmacScheme(secret=f"system-{self.config.seed}".encode())

    def _build_latency(self):
        # Clients get region slots too (they occupy pids after the replicas).
        placement = self.config.regions.assign_round_robin(
            self.num_replicas + self.config.num_clients
        )
        matrix = MatrixLatency(self.config.regions, placement, self.rng.stream("latency"))
        if self.config.gst_ms > 0:
            return PartialSynchronyLatency(
                matrix,
                self.rng.stream("pre-gst"),
                gst=self.config.gst_ms,
                delta_ms=self.config.delta_ms,
                max_extra_ms=self.config.pre_gst_extra_ms,
            )
        return matrix

    def _build_processes(self) -> None:
        config = self.config
        client_pids = {
            cid: self.num_replicas + cid for cid in range(config.num_clients)
        }
        for pid in range(self.num_replicas):
            self.directory.register_replica(pid)
        for pid in range(self.num_replicas):
            replica_class = self.replica_overrides.get(pid, self.spec.replica_class)
            replica = replica_class(
                pid,
                self.sim,
                config,
                self.scheme,
                self.directory,
                self.num_replicas,
                self.quorum,
                oracle=self.oracle,
                client_pids=client_pids,
            )
            replica.replica_pids = list(range(self.num_replicas))
            self.network.add_process(MachineProcess(replica, self.sim))
            self.replicas.append(replica)
        for cid in range(config.num_clients):
            client = Client.from_config(
                config, cid, client_pids[cid], list(range(self.num_replicas)), self.sim
            )
            self.network.add_process(MachineProcess(client, self.sim))
            self.clients.append(client)

    # -- faults -------------------------------------------------------------------

    def crash_replicas(self, pids: list[int]) -> None:
        """Crash (silence) the given replicas before or during a run."""
        for pid in pids:
            self.replicas[pid].crash()

    def recover_replicas(self, pids: list[int]) -> None:
        """Recover previously crashed replicas (unseal TEE state, rejoin)."""
        for pid in pids:
            self.replicas[pid].recover()

    def apply_fault_plan(self, plan: FaultPlan) -> None:
        """Install a fault plan: link faults now, crash/recover on schedule.

        The plan draws from the system's seeded ``"faults"`` RNG stream,
        so a given (config, plan) pair replays identically.
        """
        plan.install(self.network, self.rng.stream("faults"), replicas=self.replicas)

    # -- running --------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for replica in self.replicas:
            if not replica.crashed:
                replica.start()
        for client in self.clients:
            client.start()

    def run(self, duration_ms: float) -> RunResult:
        """Run for a fixed amount of virtual time."""
        self.start()
        self.sim.run(until=self.sim.now + duration_ms)
        return self.result()

    def run_until_views(self, num_views: int, max_time_ms: float = 600_000.0) -> RunResult:
        """Run until ``num_views`` blocks committed (or the time cap)."""
        self.start()
        while self.sim.now < max_time_ms:
            if self.monitor.committed_view_count() >= num_views:
                break
            if self.sim.pending == 0:
                break
            self.sim.run(until=self.sim.now + _RUN_CHUNK_MS)
        return self.result()

    # -- results ---------------------------------------------------------------------

    def result(self) -> RunResult:
        """The run so far, read off the monitor's running tallies."""
        monitor = self.monitor
        duration = self.sim.now
        return RunResult(
            protocol=self.config.protocol,
            f=self.config.f,
            num_replicas=self.num_replicas,
            duration_ms=duration,
            committed_blocks=monitor.committed_block_count(),
            committed_views=monitor.committed_view_count(),
            throughput_kops=monitor.throughput_kops(duration),
            mean_latency_ms=monitor.mean_latency_ms(),
            messages_sent=monitor.messages_sent,
            bytes_sent=monitor.bytes_sent,
            safe=self.oracle.safe,
        )
