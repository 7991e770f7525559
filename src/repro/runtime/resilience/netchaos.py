"""Real-network chaos: a :class:`~repro.core.faults.FaultPlan` played on OS processes.

The socket-runtime counterpart of the campaign's ``chaos`` cell: an
n-replica localhost cluster of real OS processes (one
:class:`~repro.runtime.resilience.supervisor.ReplicaSupervisor` each)
rides out one of :func:`~repro.core.faults.net_chaos_plans` on the wall
clock, from the instant every replica has committed, along
:func:`timeline`.  A respawned replica restores its durable sealed
checker state (rollback-refusing); rule changes reach the replicas
through the shared ``--fault-spec`` file, which they reload live.

The run gets a campaign cell's verdict:

* **UNSAFE** - two health samples of correct replicas report different
  ``state_root`` at the same ``ledger_height`` (the SafetyOracle's fork
  rule, :class:`ForkRule`, applied to what the replicas publish);
* **STALLED** - the cluster never boots, or within ``commit_bound_s``
  after the plan heals some correct replica does not pass the highest
  ledger height a correct replica held at the heal (the rejoin rule: a
  laggard must come level, and a cluster that is level but frozen
  fails too);
* **PASS** otherwise.

Fault injection is seeded-deterministic per (src, dst, frame sequence):
the report carries the :func:`~repro.runtime.resilience.transport.decision_digest`
of the plan's rules, which two same-seed runs reproduce exactly.
"""

from __future__ import annotations

import json
import math
import shutil
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.config import SystemConfig
from repro.core.faults import FaultPlan, net_chaos_plans, unwindowed
from repro.errors import ConfigError
from repro.runtime.resilience.supervisor import ReplicaProcessSpec, ReplicaSupervisor
from repro.runtime.resilience.transport import decision_digest

#: Polling cadence for health files (seconds).
_POLL_S = 0.25

#: Every replica process's pacemaker: 1 s views with the campaign cell's
#: 10 % jitter (without it, survivors one view apart time out in lockstep).
_TIMEOUT_MS = 1_000.0
_TIMEOUT_JITTER = 0.1

#: Blocks per certified checkpoint, by plan (the campaign cell's interval).
_CHECKPOINT_INTERVAL = {"catchup": 5}

#: One step of a played plan: (plan time in ms, action, argument).
Step = tuple[float, str, Any]


def timeline(plan: FaultPlan) -> list[Step]:
    """The plan's transition instants, in the order the orchestrator plays them.

    ``(t, "faults", spec)`` installs the rules active from ``t`` on (a
    :meth:`~repro.core.faults.FaultPlan.rules_spec` with the windows
    stripped, because each replica's decider keeps its own clock);
    ``(t, "kill", pid)`` and ``(t, "spawn", pid)`` follow the crash
    events.  The first step is always the rule set active at time 0,
    installed before the processes boot; at a tie, rules go first.
    """
    windows = [(getattr(rule, "start_ms", 0.0), rule.healed_by_ms()) for rule in plan.rules]
    instants = {0.0} | {t for window in windows for t in window if math.isfinite(t)}
    steps: list[Step] = []
    previous = None
    for t in sorted(instants):
        active = [
            unwindowed(rule)
            for rule, (start, end) in zip(plan.rules, windows)
            if start <= t < end
        ]
        spec = FaultPlan(rules=active).rules_spec()
        if spec != previous:
            steps.append((t, "faults", spec))
            previous = spec
    for event in plan.crashes:
        steps.append((event.at_ms, "kill", event.pid))
        if event.recover_at_ms is not None:
            steps.append((event.recover_at_ms, "spawn", event.pid))
    return sorted(steps, key=lambda step: step[0])


class ForkRule:
    """One state root per ledger height, over every health sample seen."""

    def __init__(self) -> None:
        self._roots: dict[int, tuple[str, int]] = {}
        self.violation: str | None = None

    def observe(self, pid: int, health: dict[str, Any]) -> None:
        height, root = int(health["ledger_height"]), health["state_root"]
        first_root, first_pid = self._roots.setdefault(height, (root, pid))
        if root != first_root and self.violation is None:
            self.violation = (
                f"replicas {first_pid} and {pid} report different state roots "
                f"at ledger height {height}"
            )


@dataclass
class NetChaosReport:
    """Everything one ``repro net-chaos`` run observed."""

    protocol: str
    n: int
    seed: int
    plan: str
    steps: list[Step]
    base_port: int
    decision_digest: str
    healed_at_ms: float
    checkpoint_interval: int = 0
    adversary: str | None = None
    adversary_pids: tuple[int, ...] = ()
    violation: str | None = None
    live_after_heal: bool = False
    heights_at_heal: dict[int, int] = field(default_factory=dict)
    #: Facts about the respawned replicas, as their health files report them.
    restored_from_seal: bool = False
    caught_up_via_checkpoint: bool = False
    fault_counts: dict[str, int] = field(default_factory=dict)
    run_dir: str = ""

    @property
    def verdict(self) -> str:
        if self.violation is not None:
            return "UNSAFE"
        if not self.live_after_heal:
            return "STALLED"
        return "PASS"

    @property
    def ok(self) -> bool:
        return self.verdict == "PASS"

    def describe(self) -> str:
        lines = [
            f"protocol            {self.protocol} (n={self.n}, seed={self.seed})",
            f"plan                {self.plan} (heals at {self.healed_at_ms / 1000:.1f} s)",
        ]
        for t_ms, action, arg in self.steps:
            if action == "faults":
                rules = FaultPlan.from_rules_spec(arg).rules
                arg = ", ".join(type(rule).__name__ for rule in rules) or "none"
            lines.append(f"  {t_ms / 1000:5.1f} s  {action:<6} {arg}")
        lines += [
            f"base port           {self.base_port}",
            f"checkpoint interval {self.checkpoint_interval or 'off'}",
            f"adversary           "
            f"{self.adversary or 'none'}"
            + (f" at pids {list(self.adversary_pids)}" if self.adversary else ""),
            f"decision digest     {self.decision_digest} (seed + plan: same-seed runs agree)",
            f"heights at heal     {self.heights_at_heal}",
            f"respawned replicas  restored_from_seal={self.restored_from_seal} "
            f"caught_up_via_checkpoint={self.caught_up_via_checkpoint}",
        ]
        if self.violation is not None:
            lines.append(f"violation           {self.violation}")
        if self.fault_counts:
            lines.append(
                "injected faults     "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.fault_counts.items()))
            )
        lines.append(f"run artifacts       {self.run_dir}")
        lines.append(f"verdict             {self.verdict}")
        return "\n".join(lines)


def _find_free_base_port(n: int, host: str) -> int:
    """A base port with ``n`` consecutive free ports above it (best effort)."""
    for _ in range(32):
        with socket.socket() as probe:
            probe.bind((host, 0))
            base = probe.getsockname()[1]
        holders = [socket.socket() for _ in range(n)]
        try:
            for offset, holder in enumerate(holders):
                holder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                holder.bind((host, base + offset))
        except (OSError, OverflowError):  # noqa: S112 - range in use or past 65535; probe again
            continue
        else:
            return base
        finally:
            for holder in holders:
                holder.close()
    raise ConfigError(f"could not find {n} consecutive free ports on {host}")


def _read_health(path: Path) -> dict[str, Any] | None:
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None


def _never(_: dict[int, dict[str, Any]]) -> bool:
    return False


class _Cluster:
    """The orchestrator's view of the running processes: sampled health."""

    def __init__(
        self,
        supervisors: list[ReplicaSupervisor],
        health: list[Path],
        correct: list[int],
    ) -> None:
        self.supervisors = supervisors
        self.health_paths = health
        self.correct = correct
        self.forks = ForkRule()

    def observe(self) -> dict[int, dict[str, Any]]:
        """Read every health file, feeding the correct replicas' to the fork rule."""
        out: dict[int, dict[str, Any]] = {}
        for pid, path in enumerate(self.health_paths):
            health = _read_health(path)
            if health is None:
                continue
            out[pid] = health
            if pid in self.correct:
                self.forks.observe(pid, health)
        return out

    def wait_until(
        self, predicate: Callable[[dict[int, dict[str, Any]]], bool], deadline: float
    ) -> bool:
        """Sample until ``predicate`` holds; False at a fork or the monotonic ``deadline``."""
        while True:
            health = self.observe()
            if self.forks.violation is not None:
                return False
            if predicate(health):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_S)

    def kill(self, pid: int) -> None:
        """SIGKILL ``pid``; its health file goes too, so later samples are the respawn's."""
        self.supervisors[pid].kill()
        self.health_paths[pid].unlink(missing_ok=True)

    def play(
        self, steps: list[Step], fault_spec: Path, report: NetChaosReport, bound_s: float
    ) -> None:
        """Walk ``steps`` on the wall clock from now, then score the rejoin."""
        t0 = time.monotonic()
        for t_ms, action, arg in steps:
            self.wait_until(_never, t0 + t_ms / 1000.0)
            if self.forks.violation is not None:
                return
            if action == "faults":
                fault_spec.write_text(arg)
            elif action == "kill":
                self.kill(arg)
            else:
                self.supervisors[arg].spawn()
        self.wait_until(_never, t0 + report.healed_at_ms / 1000.0)
        health = self.observe()
        report.heights_at_heal = {
            pid: int(health[pid].get("ledger_height", 0)) for pid in self.correct if pid in health
        }
        frontier = max(report.heights_at_heal.values(), default=0)
        report.live_after_heal = self.wait_until(
            lambda h: all(
                int(h.get(pid, {}).get("ledger_height", -1)) > frontier
                for pid in self.correct
            ),
            time.monotonic() + bound_s,
        )


def run_net_chaos(
    protocol: str = "damysus",
    n: int = 4,
    *,
    plan: str = "partition",
    seed: int = 1,
    base_port: int = 0,
    host: str = "127.0.0.1",
    commit_bound_s: float = 60.0,
    adversary: str | None = None,
    run_dir: str | Path | None = None,
    keep_artifacts: bool = False,
) -> NetChaosReport:
    """Play the named plan of :func:`~repro.core.faults.net_chaos_plans`; see module doc.

    ``commit_bound_s`` bounds the boot and the rejoin after the heal.
    Artifacts (per-replica logs, health and seal files, the fault spec)
    land under ``run_dir`` (a fresh temp directory by default, removed on
    success unless ``keep_artifacts``).  ``adversary`` seats the named
    attack at its default pids, except a pid the plan crashes (a
    Byzantine victim would prove nothing); the verdict covers the rest.
    """
    if n < 4:
        raise ConfigError("net-chaos needs n >= 4 (a 2/2 partition and f >= 1)")
    plans = net_chaos_plans(n)
    if plan not in plans:
        raise ConfigError(f"unknown plan {plan!r} (known: {', '.join(sorted(plans))})")
    fault_plan = plans[plan]
    steps = timeline(fault_plan)
    respawned = sorted({pid for _, action, pid in steps if action == "spawn"})
    checkpoint_interval = _CHECKPOINT_INTERVAL.get(plan, 0)
    adversary_pids: tuple[int, ...] = ()
    if adversary is not None:
        from repro.adversary.registry import get_adversary
        from repro.protocols.registry import get_spec

        adv = get_adversary(adversary)
        adv.replica_class(protocol)  # fail fast on unsupported protocols
        f = get_spec(protocol).max_faults(n)
        crashed = {event.pid for event in fault_plan.crashes}
        adversary_pids = tuple(pid for pid in adv.seats(n, f) if pid not in crashed)
    owns_dir = run_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-netchaos-")) if owns_dir else Path(run_dir)
    root.mkdir(parents=True, exist_ok=True)
    seal_dir = root / "seal"
    health_dir = root / "health"
    log_dir = root / "logs"
    for directory in (seal_dir, health_dir, log_dir):
        directory.mkdir(exist_ok=True)
    fault_spec = root / "faults.json"
    fault_spec.write_text(steps[0][2])

    if base_port == 0:
        base_port = _find_free_base_port(n, host)
    report = NetChaosReport(
        protocol=protocol,
        n=n,
        seed=seed,
        plan=plan,
        steps=steps,
        base_port=base_port,
        decision_digest=decision_digest(fault_plan.rules, seed, list(range(n))),
        healed_at_ms=fault_plan.healed_by_ms(),
        checkpoint_interval=checkpoint_interval,
        adversary=adversary,
        adversary_pids=adversary_pids,
        run_dir=str(root),
    )

    # The `repro serve` defaults (128 B payloads, 32-transaction blocks).
    config = SystemConfig(
        protocol=protocol,
        seed=seed,
        payload_bytes=128,
        block_size=32,
        timeout_ms=_TIMEOUT_MS,
        timeout_jitter=_TIMEOUT_JITTER,
        checkpoint_interval=checkpoint_interval,
    )
    supervisors = []
    health_paths = []
    for pid in range(n):
        health_path = health_dir / f"replica-{pid}.json"
        health_paths.append(health_path)
        spec = ReplicaProcessSpec(
            pid=pid,
            config=config,
            n=n,
            base_port=base_port,
            host=host,
            adversary=adversary if pid in adversary_pids else None,
            seal_dir=seal_dir,
            health_file=health_path,
            fault_spec=fault_spec,
        )
        supervisors.append(
            ReplicaSupervisor(spec=spec, log_path=log_dir / f"replica-{pid}.log")
        )
    correct = [pid for pid in range(n) if pid not in adversary_pids]
    cluster = _Cluster(supervisors, health_paths, correct)

    try:
        for supervisor in supervisors:
            supervisor.spawn()
        booted = cluster.wait_until(
            lambda h: len(h) == n
            and all(int(h[p].get("committed_blocks", 0)) >= 1 for p in range(n)),
            time.monotonic() + commit_bound_s,
        )
        if booted:
            cluster.play(steps[1:], fault_spec, report, commit_bound_s)
        report.violation = cluster.forks.violation

        health = cluster.observe()
        if respawned:
            report.restored_from_seal = all(
                bool(health.get(pid, {}).get("restored_from_seal")) for pid in respawned
            )
            report.caught_up_via_checkpoint = all(
                bool(health.get(pid, {}).get("caught_up_via_checkpoint"))
                for pid in respawned
            )
        totals: dict[str, int] = {}
        for sample in health.values():
            for key, value in (sample.get("faults") or {}).items():
                totals[key] = totals.get(key, 0) + int(value)
        report.fault_counts = totals
        return report
    finally:
        for supervisor in supervisors:
            supervisor.terminate()
        if owns_dir and report.ok and not keep_artifacts:
            shutil.rmtree(root, ignore_errors=True)
            report.run_dir += " (removed; pass keep_artifacts to retain)"
