"""Chaos harness: run protocols under fault plans, assert safety and liveness.

The runner composes a :class:`~repro.core.faults.FaultPlan` with any
registered protocol and checks the two properties that matter under
faults:

* **safety throughout** - the shared
  :class:`~repro.core.executor.SafetyOracle` runs in strict mode, so a
  conflicting commit raises the moment it happens, and at the end every
  correct replica's executed sequence must be a monotone prefix of the
  canonical chain;
* **liveness after healing** - once every healing fault has ceased
  (partitions healed, loss windows closed, crashed replicas recovered -
  the plan's ``healed_by_ms()``), the system must commit in
  ``settle_views`` fresh views within the time budget.

Everything is driven by the system's seeded RNG streams: the same
(config, plan) pair produces a bit-identical :class:`ChaosReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.faults import FaultPlan
from repro.costs import CostModel
from repro.errors import SafetyViolation, SimulationError
from repro.protocols.registry import get_spec
from repro.runtime.sim import ConsensusSystem

#: Simulation chunk size (virtual ms) between invariant checks.
_CHUNK_MS = 100.0


@dataclass
class ChaosReport:
    """Outcome of one chaos run; equal reports mean identical runs."""

    protocol: str
    f: int
    seed: int
    safe: bool
    violation: str | None
    healed_at_ms: float
    duration_ms: float
    commits_at_heal: int
    commits_total: int
    views_committed_after_heal: int
    live_after_heal: bool
    messages_dropped: int
    messages_duplicated: int
    crash_cycles: int
    timeouts_fired: int
    checkpoint_installs: int = 0
    catchup_rounds: int = 0

    @property
    def ok(self) -> bool:
        """Safety held throughout and the system recovered its liveness."""
        return self.safe and self.live_after_heal

    def describe(self) -> str:
        lines = [
            f"protocol             {self.protocol} (f={self.f}, seed={self.seed})",
            f"faults healed at     {self.healed_at_ms:.0f} ms",
            f"virtual time         {self.duration_ms:.0f} ms",
            f"messages dropped     {self.messages_dropped}",
            f"messages duplicated  {self.messages_duplicated}",
            f"crash/recover cycles {self.crash_cycles}",
            f"timeouts fired       {self.timeouts_fired}",
            f"commits (heal/total) {self.commits_at_heal} / {self.commits_total}",
            f"views after heal     {self.views_committed_after_heal}",
            f"checkpoint installs  {self.checkpoint_installs}",
            f"catch-up rounds      {self.catchup_rounds}",
            f"safety               {'OK' if self.safe else 'VIOLATED: ' + str(self.violation)}",
            f"liveness after heal  {'OK' if self.live_after_heal else 'STALLED'}",
        ]
        return "\n".join(lines)


def monotone_prefixes_ok(system: ConsensusSystem) -> bool:
    """Every replica's executed sequence is a slice of the canonical chain.

    A replica that installed a certified checkpoint skipped the prefix
    below it; its recorded sequence must then match the canonical chain
    starting at its checkpoint offset (offset 0 without state transfer,
    which degenerates to the plain prefix check).
    """
    canonical = system.oracle.canonical_chain()
    for replica, seq in system.oracle.sequences.items():
        offset = system.oracle.offset_of(replica)
        if seq != canonical[offset : offset + len(seq)]:
            return False
    return True


def standard_chaos_plan(
    num_replicas: int,
    f: int,
    *,
    loss: float = 0.2,
    crashes: bool = True,
    partition: bool = True,
    crash_at_ms: float = 500.0,
    partition_at_ms: float = 1_000.0,
    partition_heal_ms: float = 2_500.0,
    recover_at_ms: float = 3_000.0,
    faults_end_ms: float = 4_000.0,
) -> FaultPlan:
    """The canonical chaos schedule used by the CLI and the test suite.

    Probabilistic loss on every link until ``faults_end_ms``, a symmetric
    partition cutting the first ``f`` replicas off mid-run, and ``f``
    crash/recover cycles on the trailing replicas (staggered by 100 ms so
    their seal/unseal cycles interleave).
    """
    plan = FaultPlan()
    if loss > 0.0:
        plan.lossy_links(loss, end_ms=faults_end_ms)
    if partition:
        plan.partition(
            range(f),
            range(f, num_replicas),
            at_ms=partition_at_ms,
            heal_ms=partition_heal_ms,
        )
    if crashes:
        for i in range(f):
            plan.crash(
                num_replicas - 1 - i,
                at_ms=crash_at_ms + 100.0 * i,
                recover_at_ms=recover_at_ms + 100.0 * i,
            )
    return plan


def run_chaos(
    protocol: str = "damysus",
    *,
    plan: FaultPlan,
    f: int = 1,
    seed: int = 1,
    settle_views: int = 3,
    max_time_ms: float = 600_000.0,
    config: SystemConfig | None = None,
    **config_overrides,
) -> ChaosReport:
    """Run ``protocol`` under ``plan`` and report safety/liveness.

    ``config`` overrides the built-in fast chaos configuration entirely;
    otherwise ``config_overrides`` tweak it (e.g. ``timeout_ms=...``).
    The plan must heal (finite ``healed_by_ms``) or liveness could never
    be asserted.
    """
    healed_at = plan.healed_by_ms()
    if math.isinf(healed_at):
        raise SimulationError(
            "chaos plan never heals; liveness after healing cannot be asserted"
        )
    if config is None:
        params = dict(
            protocol=protocol,
            f=f,
            seed=seed,
            payload_bytes=0,
            block_size=5,
            timeout_ms=300.0,
            timeout_jitter=0.1,
            costs=CostModel.zero(),
        )
        params.update(config_overrides)
        config = SystemConfig(**params)
    system = ConsensusSystem(config, strict_safety=True)
    system.apply_fault_plan(plan)
    violation: str | None = None
    commits_at_heal = 0
    views_at_heal: set[int] = set()
    system.start()
    try:
        # Phase 1: ride out the faults, safety checked on every commit.
        while system.sim.now < healed_at:
            system.sim.run(until=min(healed_at, system.sim.now + _CHUNK_MS))
        commits_at_heal = len({r.block_hash for r in system.monitor.executions})
        views_at_heal = set(system.monitor.committed_views())
        # Phase 2: after healing, the system must commit in fresh views.
        while system.sim.now < max_time_ms:
            fresh = system.monitor.committed_views() - views_at_heal
            if len(fresh) >= settle_views:
                break
            if system.sim.pending == 0:
                break
            system.sim.run(until=system.sim.now + _CHUNK_MS)
    except SafetyViolation as exc:
        violation = str(exc)
    fresh_views = system.monitor.committed_views() - views_at_heal
    safe = violation is None and system.oracle.safe and monotone_prefixes_ok(system)
    return ChaosReport(
        protocol=config.protocol,
        f=config.f,
        seed=config.seed,
        safe=safe,
        violation=violation,
        healed_at_ms=healed_at,
        duration_ms=system.sim.now,
        commits_at_heal=commits_at_heal,
        commits_total=len({r.block_hash for r in system.monitor.executions}),
        views_committed_after_heal=len(fresh_views),
        live_after_heal=len(fresh_views) >= settle_views,
        messages_dropped=system.monitor.messages_dropped,
        messages_duplicated=system.monitor.messages_duplicated,
        crash_cycles=sum(r.recovery_count for r in system.replicas),
        timeouts_fired=sum(r.pacemaker.timeouts_fired for r in system.replicas),
        checkpoint_installs=sum(
            1 for r in system.replicas if r.caught_up_via_checkpoint
        ),
        catchup_rounds=sum(r.catchup.completed for r in system.replicas),
    )


def run_standard_chaos(
    protocol: str = "damysus",
    *,
    f: int = 1,
    seed: int = 1,
    loss: float = 0.2,
    crashes: bool = True,
    partition: bool = True,
    settle_views: int = 3,
    **config_overrides,
) -> ChaosReport:
    """Convenience wrapper: the standard plan sized for ``protocol``/``f``."""
    num_replicas = get_spec(protocol).num_replicas(f)
    plan = standard_chaos_plan(
        num_replicas, f, loss=loss, crashes=crashes, partition=partition
    )
    return run_chaos(
        protocol,
        plan=plan,
        f=f,
        seed=seed,
        settle_views=settle_views,
        **config_overrides,
    )
