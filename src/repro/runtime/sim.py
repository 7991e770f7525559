"""Discrete-event simulator runtime: hosts sans-I/O machines bit-identically.

:class:`MachineProcess` adapts one protocol machine to the simulator: it
is the :class:`~repro.sim.process.Process` registered on the network, and
it interprets the machine's effect lists (in emission order, inside the
same simulator event that invoked the handler) onto the CPU model, the
network and the timer wheel.  Because effect order equals the order the
old imperative handlers performed those calls, every (time, seq) event
ordering - and therefore every benchmark, figure and chaos result - is
bit-identical to the pre-refactor architecture.

:class:`ConsensusSystem` wires one complete simulated deployment and is
the single entry point used by tests, examples and the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.crypto.scheme import SignatureScheme
from repro.crypto.schnorr import GROUP_TEST, SchnorrScheme
from repro.core.executor import SafetyOracle
from repro.core.faults import FaultPlan
from repro.core.rng import RngFactory
from repro.protocols.client import Client
from repro.protocols.registry import ProtocolSpec, get_spec
from repro.protocols.replica import BaseReplica
from repro.runtime.effects import (
    Broadcast,
    CancelTimer,
    ChargeCpu,
    Effect,
    Send,
    SetTimer,
)
from repro.runtime.machine import Machine
from repro.sim.events import Event, Simulator
from repro.sim.latency import MatrixLatency, PartialSynchronyLatency
from repro.sim.monitor import Monitor
from repro.sim.network import Network
from repro.sim.process import Process

#: Simulation chunk size (virtual ms) between stop-condition checks.
_RUN_CHUNK_MS = 200.0


class MachineProcess(Process):
    """One machine's seat on the simulator: its Process and its Runtime."""

    def __init__(self, machine: Machine, sim: Simulator) -> None:
        self.machine = machine
        super().__init__(machine.pid, sim)
        machine.runtime = self
        self._timers: dict[int, Event] = {}

    # The machine owns the crashed flag (fault plans crash machines
    # directly); delegating keeps network delivery gating consistent.
    @property
    def crashed(self) -> bool:  # type: ignore[override]
        return self.machine.crashed

    @crashed.setter
    def crashed(self, value: bool) -> None:
        self.machine.crashed = value

    # -- Process side ------------------------------------------------------

    def start(self) -> None:
        self.machine.start()

    def crash(self) -> None:
        self.machine.crash()

    def recover(self) -> None:
        self.machine.recover()

    def on_message(self, sender: int, payload: object) -> None:
        self.machine.on_message(sender, payload)

    # -- Runtime side ------------------------------------------------------

    def execute(self, effects: list[Effect]) -> None:
        """Interpret ``effects`` in order on the simulator.

        Runs inside the simulator event that invoked the machine handler,
        so scheduled deliveries get the same (time, seq) keys as when the
        handler performed the sends itself.
        """
        for effect in effects:
            if type(effect) is Send:
                self.send(effect.dest, effect.payload, effect.size_bytes)
            elif type(effect) is Broadcast:
                self.broadcast(
                    effect.dests, effect.payload, effect.size_bytes, effect.include_self
                )
            elif type(effect) is ChargeCpu:
                self.charge(effect.ms)
            elif type(effect) is SetTimer:
                self._arm_timer(effect.timer_id, effect.delay_ms)
            elif type(effect) is CancelTimer:
                timer = self._timers.pop(effect.timer_id, None)
                if timer is not None:
                    timer.cancel()
            # Commit needs no interpretation here: the monitor already
            # observed the execution through the ledger.

    def _arm_timer(self, timer_id: int, delay_ms: float) -> None:
        self._timers[timer_id] = self.sim.schedule(delay_ms, self._timer_fired, timer_id)

    def _timer_fired(self, timer_id: int) -> None:
        self._timers.pop(timer_id, None)
        self.machine.on_timer(timer_id)

    def machine_recovered(self) -> None:
        """Mirror ``Process.recover``: a restarted CPU starts out idle."""
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
                monitor=self.monitor,
                client_pids=client_pids,
            )
            replica.replica_pids = list(range(self.num_replicas))
            self.network.add_process(MachineProcess(replica, self.sim))
            self.replicas.append(replica)
        # Payload mixes and fee draws need client randomness even when
        # arrivals stay periodic; the explicit ``poisson`` flag keeps the
        # two concerns independent (and historical seeds bit-identical).
        needs_rng = bool(
            config.client_poisson or config.client_payload_mix or config.client_max_fee
        )
        for cid in range(config.num_clients):
            client = Client(
                pid=client_pids[cid],
                clock=self.sim,
                client_id=cid,
                replica_pids=list(range(self.num_replicas)),
                payload_bytes=config.payload_bytes,
                interval_ms=config.client_interval_ms,
                total_txs=config.client_total_txs,
                rng=self.rng.stream(f"client:{cid}") if needs_rng else None,
                poisson=config.client_poisson,
                payload_mix=config.client_payload_mix or None,
                max_fee=config.client_max_fee,
                retry_limit=config.client_retry_limit,
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
            if len(self.monitor.committed_views()) >= num_views:
                break
            if self.sim.pending == 0:
                break
            self.sim.run(until=self.sim.now + _RUN_CHUNK_MS)
        return self.result()

    # -- results ---------------------------------------------------------------------

    def result(self) -> RunResult:
        distinct_blocks = {rec.block_hash for rec in self.monitor.executions}
        duration = self.sim.now
        return RunResult(
            protocol=self.config.protocol,
            f=self.config.f,
            num_replicas=self.num_replicas,
            duration_ms=duration,
            committed_blocks=len(distinct_blocks),
            committed_views=len(self.monitor.committed_views()),
            throughput_kops=self.monitor.throughput_kops(duration),
            mean_latency_ms=self.monitor.mean_latency_ms(),
            messages_sent=self.monitor.messages_sent,
            bytes_sent=self.monitor.bytes_sent,
            safe=self.oracle.safe,
        )
