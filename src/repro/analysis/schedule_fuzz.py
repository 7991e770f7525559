"""Randomized schedule exploration: safety across adversarial timings.

The paper proves safety for all message schedules; a simulator can't
enumerate them, but it can sample aggressively.  Each fuzz case runs a
protocol under a randomly drawn *hostile* schedule - pre-GST chaotic
delays, random crash sets of up to f replicas (including leaders), random
timeout settings - and asserts that the safety oracle stays clean and
that the run commits once the chaos ends.

This is the practical stand-in for the model checking the paper leaves
as future work (Section 6.5): hundreds of seeds explore orderings far
nastier than the benign benchmarks ever produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.rng import RngStream
from repro.costs import CostModel
from repro.protocols.registry import get_spec
from repro.runtime.sim import ConsensusSystem


@dataclass(frozen=True)
class FuzzCase:
    """One sampled hostile schedule."""

    seed: int
    crashed: tuple[int, ...]
    gst_ms: float
    timeout_ms: float
    max_extra_ms: float


@dataclass
class FuzzOutcome:
    case: FuzzCase
    safe: bool
    committed: int
    violations: int


def draw_case(protocol: str, f: int, seed: int) -> FuzzCase:
    """Deterministically derive a hostile schedule from a seed."""
    rng = RngStream(seed, f"fuzz:{protocol}:{f}")
    spec = get_spec(protocol)
    n = spec.num_replicas(f)
    max_crashes = spec.max_faults(n)
    crash_count = rng.randint(0, max_crashes)
    pids = list(range(n))
    rng.shuffle(pids)
    return FuzzCase(
        seed=seed,
        crashed=tuple(sorted(pids[:crash_count])),
        gst_ms=rng.uniform(0.0, 400.0),
        timeout_ms=rng.uniform(120.0, 400.0),
        max_extra_ms=rng.uniform(50.0, 400.0),
    )


def run_case(protocol: str, f: int, case: FuzzCase, target_views: int = 3) -> FuzzOutcome:
    """Execute one fuzz case; safety violations are *recorded*, not raised."""
    config = SystemConfig(
        protocol=protocol,
        f=f,
        payload_bytes=0,
        block_size=5,
        seed=case.seed,
        timeout_ms=case.timeout_ms,
        costs=CostModel.zero(),
        gst_ms=case.gst_ms,
        delta_ms=80.0,
        pre_gst_extra_ms=case.max_extra_ms,
    )
    system = ConsensusSystem(config, strict_safety=False)
    system.crash_replicas(list(case.crashed))
    result = system.run_until_views(target_views, max_time_ms=120_000.0)
    return FuzzOutcome(
        case=case,
        safe=system.oracle.safe,
        committed=result.committed_blocks,
        violations=len(system.oracle.violations),
    )


def fuzz(protocol: str, f: int = 1, cases: int = 25, base_seed: int = 0) -> list[FuzzOutcome]:
    """Run ``cases`` sampled schedules; returns every outcome."""
    outcomes = []
    for i in range(cases):
        case = draw_case(protocol, f, base_seed + i)
        outcomes.append(run_case(protocol, f, case))
    return outcomes


def summarize(outcomes: list[FuzzOutcome]) -> str:
    unsafe = [o for o in outcomes if not o.safe]
    stalled = [o for o in outcomes if o.committed == 0 and not o.case.crashed]
    lines = [
        f"{len(outcomes)} schedules: {len(unsafe)} unsafe, "
        f"{len(stalled)} stalled fault-free runs"
    ]
    for outcome in unsafe:
        lines.append(f"  UNSAFE: {outcome.case}")
    return "\n".join(lines)
