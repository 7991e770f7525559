"""Attack campaigns: sweep the adversary zoo, score every cell with oracles.

``repro campaign`` runs a seeded matrix of {protocol x adversary x base
fault plan x region topology} cells on the simulator.  Each cell seats
the named adversary (via ``ConsensusSystem(replica_overrides=...)``),
installs the base plan merged with the adversary's colluding plan, rides
out the faults, and scores the run with three oracles:

* **SafetyOracle** (existing, strict) - no two correct replicas ever
  execute conflicting blocks, and every executed sequence is a monotone
  slice of the canonical chain;
* **LivenessOracle** - after every healing fault has ceased (the plan's
  ``healed_by_ms``: GST for partitions, the restart for a crash), commits
  resume within a bounded number of views *and at a rate*: over the
  next ``view_budget`` views, the correct replica that executes least
  gains blocks per view at no less than :data:`LIVENESS_RATE_SHARE` of
  what the clean baseline's laggard gains over the same stretch of time.
  Per view, so a Byzantine leader's timeouts cost what they cost; the
  laggard, so a replica that is back but never rejoins fails the cell;
* **DegradationOracle** - throughput under attack versus a same-seed,
  same-duration clean run of the identical configuration, labelled
  ``minimal`` / ``moderate`` / ``severe``.

A safe, live cell whose seated attack fired no event reads ``UNTESTED``,
not ``PASS``: it tested nothing, though it is still ``ok``.

The honest adversary ``none`` seats nobody, so its cell is the base plan
alone: ``repro campaign --adversaries none --plans chaos --topologies eu``
is the honest chaos cell.

Everything is a pure function of the campaign seed: the same seed yields
a bit-identical JSON report (no wall-clock fields anywhere), which CI
exploits by running the smoke matrix twice and comparing digests.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

from repro.adversary.registry import ADVERSARIES, AdversarySpec, get_adversary
from repro.config import SystemConfig
from repro.core.faults import FaultPlan, standard_chaos_plan
from repro.costs import CostModel
from repro.errors import ConfigError, SafetyViolation, SimulationError
from repro.protocols.registry import get_spec
from repro.runtime.sim import ConsensusSystem
from repro.sim.regions import EU_REGIONS, WORLD_REGIONS, RegionMap

#: Simulation chunk size (virtual ms) between oracle checks.
_CHUNK_MS = 100.0

#: Region topologies a campaign can place replicas into.
TOPOLOGIES: dict[str, RegionMap] = {"eu": EU_REGIONS, "world": WORLD_REGIONS}

#: Share of the clean baseline's post-heal blocks per view that every
#: correct replica must sustain.  One silent leader in n = 3 leaves 2/3.
LIVENESS_RATE_SHARE = 0.5

#: Degradation labels by attack/clean throughput ratio (inclusive lower
#: bounds, consulted in order).  A ratio above 0.75 is noise-level.
_DEGRADATION_BANDS: tuple[tuple[float, str], ...] = (
    (0.75, "minimal"),
    (0.40, "moderate"),
    (0.0, "severe"),
)


def degradation_label(ratio: float) -> str:
    """Map an attack/clean throughput ratio onto a severity band."""
    for floor, label in _DEGRADATION_BANDS:
        if ratio >= floor:
            return label
    return "severe"


def base_plans(num_replicas: int, f: int) -> dict[str, FaultPlan]:
    """The named network conditions a campaign can overlay attacks on.

    Plans are rebuilt per call because :class:`FaultPlan` is mutable and
    cells merge colluding rules into their copy.  ``chaos`` (loss, a
    partition and ``f`` crash/recover cycles) is sized for the cluster;
    the names are the same for every size.
    """
    return {
        "clean": FaultPlan(),
        "lossy": FaultPlan().lossy_links(0.1, end_ms=1_200.0),
        "chaos": standard_chaos_plan(num_replicas, f),
    }


def merge_plans(base: FaultPlan, extra: FaultPlan | None) -> FaultPlan:
    """A fresh plan carrying both inputs' rules and crash events."""
    merged = FaultPlan()
    merged.rules.extend(base.rules)
    merged.crashes.extend(base.crashes)
    if extra is not None:
        merged.rules.extend(extra.rules)
        merged.crashes.extend(extra.crashes)
    return merged


@dataclass(frozen=True)
class CampaignCell:
    """One scored (protocol, adversary, plan, topology) combination."""

    protocol: str
    adversary: str
    plan: str
    topology: str
    seed: int
    # -- SafetyOracle ---------------------------------------------------
    safe: bool
    violation: str | None
    # -- LivenessOracle (None: unscored, because the cell is unsafe) -----
    live_after_heal: bool
    views_to_recover: int | None  # view gap heal -> first fresh commit (None if none)
    commit_rate: float | None  # post-heal blocks per view, slowest correct replica
    baseline_commit_rate: float | None  # the same, in the clean baseline
    healed_at_ms: float
    duration_ms: float  # virtual, deterministic
    # -- DegradationOracle ----------------------------------------------
    commits: int
    baseline_commits: int
    degradation_ratio: float
    degradation: str
    # -- attack bookkeeping ---------------------------------------------
    attack_events: int
    attacker_pids: tuple[int, ...]
    timeouts_fired: int

    @property
    def ok(self) -> bool:
        """Safety held and liveness recovered; degradation is informational."""
        return self.safe and self.live_after_heal

    @property
    def verdict(self) -> str:
        """UNSAFE, then STALLED, then UNTESTED: a seated attack that fired
        no event tested nothing, however well the cell went."""
        if not self.safe:
            return "UNSAFE"
        if not self.live_after_heal:
            return "STALLED"
        if self.attacker_pids and not self.attack_events:
            return "UNTESTED"
        return "PASS"


@dataclass
class CampaignReport:
    """A full campaign: parameters, every scored cell, skipped combos."""

    seed: int
    view_budget: int
    protocols: tuple[str, ...]
    adversaries: tuple[str, ...]
    plans: tuple[str, ...]
    topologies: tuple[str, ...]
    cells: list[CampaignCell] = field(default_factory=list)
    #: (adversary, protocol) pairs skipped because the attack does not
    #: target that protocol (e.g. amnesia needs a TEE to roll back).
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def to_dict(self) -> dict:
        cells = []
        for cell in self.cells:
            entry = asdict(cell)
            entry["attacker_pids"] = list(cell.attacker_pids)
            entry["verdict"] = cell.verdict
            cells.append(entry)
        return {
            "seed": self.seed,
            "view_budget": self.view_budget,
            "protocols": list(self.protocols),
            "adversaries": list(self.adversaries),
            "plans": list(self.plans),
            "topologies": list(self.topologies),
            "cells": cells,
            "skipped": [list(pair) for pair in self.skipped],
            "digest": self.digest(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self) -> str:
        """SHA-256 over the canonical cell encoding; CI's determinism gate."""
        cells = [asdict(cell) | {"attacker_pids": list(cell.attacker_pids)}
                 for cell in self.cells]
        blob = json.dumps(cells, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def describe(self) -> str:
        header = (
            f"{'protocol':10s} {'adversary':11s} {'plan':6s} {'topo':6s} "
            f"{'verdict':8s} {'degrade':9s} {'ratio':>6s} {'views':>5s} {'rate':>5s} "
            f"{'events':>7s}"
        )
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            recover = "-" if cell.views_to_recover is None else str(cell.views_to_recover)
            rate = "-" if cell.commit_rate is None else f"{cell.commit_rate:.2f}"
            lines.append(
                f"{cell.protocol:10s} {cell.adversary:11s} {cell.plan:6s} "
                f"{cell.topology:6s} {cell.verdict:8s} {cell.degradation:9s} "
                f"{cell.degradation_ratio:6.2f} {recover:>5s} {rate:>5s} "
                f"{cell.attack_events:>7d}"
            )
        for adversary, protocol in self.skipped:
            lines.append(f"{protocol:10s} {adversary:11s} (skipped: unsupported)")
        verdicts = Counter(cell.verdict for cell in self.cells)
        lines.append(
            f"{len(self.cells)} cells: "
            f"{verdicts['PASS']} pass, {verdicts['UNSAFE']} unsafe, "
            f"{verdicts['STALLED']} stalled, {verdicts['UNTESTED']} untested; "
            f"digest {self.digest()[:16]}"
        )
        return "\n".join(lines)


def _cell_config(
    protocol: str,
    topology: str,
    seed: int,
    overrides: dict,
) -> SystemConfig:
    try:
        regions = TOPOLOGIES[topology]
    except KeyError:
        raise ConfigError(
            f"unknown topology {topology!r} (known: {', '.join(sorted(TOPOLOGIES))})"
        ) from None
    params = dict(
        protocol=protocol,
        f=1,
        seed=seed,
        payload_bytes=0,
        block_size=5,
        timeout_ms=250.0,
        timeout_jitter=0.1,
        costs=CostModel.zero(),
        regions=regions,
        checkpoint_interval=5,
    )
    params.update(overrides)
    return SystemConfig(**params)


def _commits(system: ConsensusSystem) -> int:
    return system.monitor.committed_block_count()


def _frontier(system: ConsensusSystem, attackers: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    """Highest view, and executed height by pid, over the correct replicas that are up."""
    correct = [r for r in system.replicas if r.pid not in attackers and not r.crashed]
    return (
        max((r.view for r in correct), default=0),
        {r.pid: r.ledger.height() for r in correct},
    )


def _commit_rate(
    system: ConsensusSystem,
    attackers: tuple[int, ...],
    at_heal: tuple[int, dict[int, int]],
) -> tuple[int, float]:
    """Views since ``at_heal``, and blocks per view gained by the slowest replica."""
    view, heights = _frontier(system, attackers)
    views = view - at_heal[0]
    gained = min((heights[pid] - at_heal[1].get(pid, 0) for pid in heights), default=0)
    return views, (gained / views if views else 0.0)


def run_cell(
    protocol: str,
    spec: AdversarySpec,
    plan_name: str,
    topology: str,
    *,
    seed: int,
    view_budget: int = 30,
    max_time_ms: float = 60_000.0,
    config_overrides: dict | None = None,
) -> CampaignCell:
    """Run one attack cell plus its same-seed clean baseline and score it.

    A cell with no seats and no colluding plan (the honest ``none``) is
    its own clean baseline, so it runs once.
    """
    config = _cell_config(protocol, topology, seed, dict(config_overrides or {}))
    num_replicas = get_spec(protocol).num_replicas(config.f)
    overrides = spec.replica_overrides(protocol, num_replicas, config.f)
    seats = tuple(overrides)
    colluding = (
        spec.colluding_plan(num_replicas, config.f)
        if spec.colluding_plan is not None
        else None
    )
    plan = merge_plans(base_plans(num_replicas, config.f)[plan_name], colluding)
    healed_at = plan.healed_by_ms()
    if math.isinf(healed_at):
        raise SimulationError(
            f"campaign plan {plan_name!r} never heals; liveness cannot be scored"
        )

    system = ConsensusSystem(config, strict_safety=True, replica_overrides=overrides)
    system.apply_fault_plan(plan)
    violation: str | None = None
    views_at_heal: set[int] = set()
    at_heal = _frontier(system, seats)
    system.start()
    try:
        # Phase 1: ride out the attack window and any colluding faults.
        while system.sim.now < healed_at:
            system.sim.run(until=min(healed_at, system.sim.now + _CHUNK_MS))
        views_at_heal = set(system.monitor.committed_views())
        at_heal = _frontier(system, seats)
        # Phase 2 (LivenessOracle): the next ``view_budget`` views.
        while system.sim.now < max_time_ms:
            if _frontier(system, seats)[0] - at_heal[0] >= view_budget:
                break
            if system.sim.pending == 0:
                break
            system.sim.run(until=system.sim.now + _CHUNK_MS)
    except SafetyViolation as exc:
        violation = str(exc)

    safe = violation is None and system.oracle.safe and system.oracle.monotone_prefixes_ok()
    duration_ms = system.sim.now
    views_to_recover: int | None = None
    commit_rate: float | None = None
    views_run = 0
    if violation is None:
        fresh_views = system.monitor.committed_views() - views_at_heal
        if fresh_views:
            frontier = max(views_at_heal) if views_at_heal else 0
            views_to_recover = min(fresh_views) - frontier
        views_run, commit_rate = _commit_rate(system, seats, at_heal)
        commits = _commits(system)
    else:
        # The oracle raised inside a ledger's execute call, so the monitor
        # never heard of that call's blocks; the oracle recorded each one.
        # Liveness is left unscored: an unsafe cell fails on safety alone.
        oracle = system.oracle
        commits = len(set(oracle.canonical_chain()).union(*oracle.sequences.values()))

    # DegradationOracle: the identical deployment, same seed, no
    # adversary and no colluding faults, run for the same virtual time.
    # Its stretch from the heal on is the LivenessOracle's yardstick.
    baseline_rate: float | None
    if seats or colluding is not None:
        baseline = ConsensusSystem(config, strict_safety=True)
        baseline.apply_fault_plan(base_plans(num_replicas, config.f)[plan_name])
        baseline.start()
        baseline.sim.run(until=min(healed_at, duration_ms))
        baseline_at_heal = _frontier(baseline, ())
        baseline.sim.run(until=duration_ms)
        baseline_commits = _commits(baseline)
        _, baseline_rate = _commit_rate(baseline, (), baseline_at_heal)
    else:
        baseline_commits, baseline_rate = commits, commit_rate
    ratio = commits / baseline_commits if baseline_commits else 1.0
    live = (
        commit_rate is not None
        and baseline_rate is not None
        and views_to_recover is not None
        and views_to_recover <= view_budget
        and views_run >= view_budget
        and commit_rate >= LIVENESS_RATE_SHARE * baseline_rate
    )

    return CampaignCell(
        protocol=protocol,
        adversary=spec.name,
        plan=plan_name,
        topology=topology,
        seed=seed,
        safe=safe,
        violation=violation,
        live_after_heal=live,
        views_to_recover=views_to_recover,
        commit_rate=None if commit_rate is None else round(commit_rate, 4),
        baseline_commit_rate=None if baseline_rate is None else round(baseline_rate, 4),
        healed_at_ms=healed_at,
        duration_ms=duration_ms,
        commits=commits,
        baseline_commits=baseline_commits,
        degradation_ratio=round(ratio, 4),
        degradation=degradation_label(ratio),
        attack_events=sum(spec.events(system.replicas[pid]) for pid in seats),
        attacker_pids=seats,
        timeouts_fired=sum(r.pacemaker.timeouts_fired for r in system.replicas),
    )


def run_campaign(
    *,
    protocols: tuple[str, ...] = ("damysus", "hotstuff"),
    adversaries: tuple[str, ...] = (),
    plans: tuple[str, ...] = ("clean", "lossy"),
    topologies: tuple[str, ...] = ("eu", "world"),
    seed: int = 1,
    view_budget: int = 30,
    max_time_ms: float = 60_000.0,
    config_overrides: dict | None = None,
) -> CampaignReport:
    """Sweep the matrix; cells run in sorted order so reports are stable.

    An empty ``adversaries`` tuple means the whole registry (the honest
    ``none`` runs only when named).  Unsupported (adversary, protocol)
    pairs are recorded as skipped, not errors, so protocol-specific
    attacks (amnesia, flood) ride along in full sweeps.
    """
    names = tuple(adversaries) or tuple(sorted(ADVERSARIES))
    known_plans = base_plans(1, 0)
    for plan_name in plans:
        if plan_name not in known_plans:
            raise ConfigError(
                f"unknown plan {plan_name!r} (known: {', '.join(sorted(known_plans))})"
            )
    report = CampaignReport(
        seed=seed,
        view_budget=view_budget,
        protocols=tuple(protocols),
        adversaries=names,
        plans=tuple(plans),
        topologies=tuple(topologies),
    )
    for protocol in protocols:
        for name in names:
            spec = get_adversary(name)
            if not spec.supports(protocol):
                report.skipped.append((name, protocol))
                continue
            for plan_name in plans:
                for topology in topologies:
                    report.cells.append(
                        run_cell(
                            protocol,
                            spec,
                            plan_name,
                            topology,
                            seed=seed,
                            view_budget=view_budget,
                            max_time_ms=max_time_ms,
                            config_overrides=config_overrides,
                        )
                    )
    return report


#: The CI smoke matrix: 2 protocols x 6 adversaries x 2 topologies on the
#: clean plan - small enough to run twice (for the digest check), wide
#: enough to cover leader-side, coalition, rollback and mempool attacks.
SMOKE_ADVERSARIES: tuple[str, ...] = (
    "silent",
    "equivocate",
    "slow-drip",
    "withhold",
    "amnesia",
    "spam",
)


def run_smoke_campaign(*, seed: int = 1) -> CampaignReport:
    """The fixed small matrix CI runs (twice) as a blocking gate."""
    return run_campaign(
        protocols=("damysus", "hotstuff"),
        adversaries=SMOKE_ADVERSARIES,
        plans=("clean",),
        topologies=("eu", "world"),
        seed=seed,
    )
