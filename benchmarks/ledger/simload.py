"""The three simulator workloads.

A simulated run is bit-identical for a given seed, so the same seed runs
again and again until ``--seconds`` have passed, and the repetitions must
agree on a digest of everything they produced.  Each repetition is cut
into chunks of virtual time with the host probe (``common.probe``) timed
between them; a chunk's wall time is scaled to the reference host by the
probes either side of it, a repetition's wall time is the sum of its
scaled chunks, and the median repetition is reported.

Every cell has a *horizon* of virtual time.  Wall time, and the
transactions it is divided by, are taken over the horizon only, so the
views a seed runs are (nearly) a constant of the workload.  Client-driven
cells give each client a fixed number of requests - the horizon is how
long they take to submit at the offered rate - and then keep running,
off the clock, until every request has its committed reply (or a cap):
the requests due are a constant too, nothing is lost to a cut-off, and
``failed`` counts real losses only.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import common
import layers
import micro
import stats
import tracing
from repro.bench.load import load_config
from repro.config import SystemConfig
from repro.core.faults import FaultPlan
from repro.runtime.sim import ConsensusSystem
from repro.sim.regions import EU_REGIONS, WORLD_REGIONS

#: Repetitions an untraced run makes at the very least.
MIN_REPETITIONS = 2


@dataclass(frozen=True)
class Cell:
    """One simulated deployment inside a workload."""

    label: str
    protocol: str
    f: int
    chunk_ms: float
    #: Virtual time on the clock.
    horizon_ms: float
    #: Client-driven: aggregate Poisson rate, clients, requests per client.
    rate_per_s: float = 0.0
    clients: int = 0
    requests_per_client: int = 0
    #: Client-driven: virtual time by which draining gives up.
    drain_cap_ms: float = 0.0
    world_regions: bool = False
    #: (pid, crash at, restart at) in virtual ms.
    crash: tuple[int, float, float] | None = None
    #: The cell whose virtual throughput and latency the workload reports.
    primary: bool = True

    def config(self, seed: int) -> SystemConfig:
        if self.clients:
            config = load_config(
                self.protocol, rate_per_s=self.rate_per_s, senders=self.clients,
                f=self.f, seed=seed, payload_bytes=256,
            )
            return dataclasses.replace(config, client_total_txs=self.requests_per_client)
        return SystemConfig(
            protocol=self.protocol, f=self.f, seed=seed, payload_bytes=256, block_size=400,
            open_loop=True, regions=WORLD_REGIONS if self.world_regions else EU_REGIONS,
        )


CELLS: dict[str, tuple[Cell, ...]] = {
    # 16 x 250 requests at 2000 tx/s: two virtual seconds of offered load.
    "sim-load": (
        Cell("damysus-f1", "damysus", 1, chunk_ms=50.0, horizon_ms=2_000.0, rate_per_s=2000.0,
             clients=16, requests_per_client=250, drain_cap_ms=30_000.0),
    ),
    # About 50 views each; HotStuff runs first and is not the primary cell.
    "sim-quorum": (
        Cell("hotstuff-f10", "hotstuff", 10, chunk_ms=500.0, horizon_ms=30_000.0,
             world_regions=True, primary=False),
        Cell("damysus-f10", "damysus", 10, chunk_ms=500.0, horizon_ms=20_000.0,
             world_regions=True),
    ),
    # 16 x 312 requests at 500 tx/s: ten virtual seconds of offered load
    # around a crash of replica 1 (the leader of view 1) from 3 s to 8 s.
    "sim-leader-crash": (
        Cell("damysus-f1-crash", "damysus", 1, chunk_ms=100.0, horizon_ms=10_000.0,
             rate_per_s=500.0, clients=16, requests_per_client=312, drain_cap_ms=120_000.0,
             crash=(1, 3_000.0, 8_000.0)),
    ),
}


@dataclass
class CellRun:
    """One cell, run once: wall time per chunk plus everything it produced."""

    cell: Cell
    build_s: float
    chunk_walls: list[float]
    #: Host probes around the chunks: one more than there are chunks.
    probes: list[float]
    attempted: int
    failed: int
    committed_tx: int  # by the end of the run
    horizon_tx: int  # committed within the horizon
    latencies_ms: list[float]
    reply_times_ms: list[float]
    digest: str
    safe: bool
    duplicate_completions: int
    views_advanced: int
    timeouts: int
    events: int
    live_pending: int
    admissions: int
    rejections: int

    @property
    def virtual_tx_per_s(self) -> float:
        """Committed within the horizon per virtual second.

        Synthetic-block cells count up to their last commit rather than
        the round horizon, so the figure is measured, not a constant.
        """
        span_ms = self.cell.horizon_ms if self.cell.clients else self.reply_times_ms[-1]
        return self.horizon_tx / (span_ms / 1000.0)


def run_cell(cell: Cell, seed: int, clock_drain: bool = False) -> CellRun:
    """Run one cell; ``clock_drain`` also times the chunks after the horizon.

    A traced run sets it, so that the wall time it divides by covers
    exactly what its wrappers saw.
    """
    started = time.perf_counter()
    system = ConsensusSystem(cell.config(seed), strict_safety=True)
    if cell.crash is not None:
        pid, at_ms, restart_ms = cell.crash
        system.apply_fault_plan(FaultPlan().crash(pid, at_ms=at_ms, recover_at_ms=restart_ms))
    start_views = [replica.view for replica in system.replicas]
    system.start()
    build_s = time.perf_counter() - started

    chunk_walls: list[float] = []
    probes = [common.probe()]
    clock = time.perf_counter
    for _ in range(round(cell.horizon_ms / cell.chunk_ms)):
        t0 = clock()
        system.run(cell.chunk_ms)
        chunk_walls.append(clock() - t0)
        probes.append(common.probe())
    total = cell.clients * cell.requests_per_client
    while (
        system.sim.now < cell.drain_cap_ms
        and sum(len(c.completed) + c.dropped for c in system.clients) < total
    ):
        t0 = clock()
        system.run(cell.chunk_ms)
        if clock_drain:
            chunk_walls.append(clock() - t0)
            probes.append(common.probe())
    return _collect(cell, system, build_s, chunk_walls, probes, start_views)


def _collect(
    cell: Cell, system: ConsensusSystem, build_s: float, chunk_walls: list[float],
    probes: list[float], start_views: list[int],
) -> CellRun:
    monitor = system.monitor
    chain = system.oracle.canonical_chain()
    admissions, rejections = common.admissions_and_rejections(system.replicas)
    timeouts = max(replica.pacemaker.timeouts_fired for replica in system.replicas)
    if cell.clients:
        done = [record for client in system.clients for record in client.completed]
        keys = {(client.client_id, record.tx_id)
                for client in system.clients for record in client.completed}
        attempted = sum(client.submitted_total for client in system.clients)
        committed_tx = len(done)
        latencies = [record.latency_ms for record in done]
        reply_times = sorted(record.first_reply_at for record in done)
        duplicates = len(done) - len(keys)
        failed = attempted - committed_tx
    else:
        # Each view is one attempt to commit a block; it fails by timing out.
        seen: dict[bytes, int] = {}
        for record in monitor.executions:
            seen.setdefault(record.block_hash, record.num_transactions)
        committed_tx = sum(seen.values())
        latencies = [record.latency_ms for record in monitor.executions]
        reply_times = sorted(record.executed_at for record in monitor.executions)
        duplicates = 0
        attempted = len(monitor.committed_views()) + timeouts
        failed = timeouts
    digest = hashlib.sha256(repr((
        [block_hash.hex() for block_hash in chain], committed_tx, attempted,
        round(sum(latencies), 6), monitor.messages_sent, monitor.bytes_sent,
        system.sim.events_processed, system.sim.now,
    )).encode()).hexdigest()
    return CellRun(
        cell=cell, build_s=build_s, chunk_walls=chunk_walls, probes=probes, attempted=attempted,
        failed=failed, committed_tx=committed_tx,
        horizon_tx=(
            sum(1 for at in reply_times if at <= cell.horizon_ms) if cell.clients
            else committed_tx
        ),
        latencies_ms=latencies, reply_times_ms=reply_times, digest=digest,
        safe=system.oracle.safe, duplicate_completions=duplicates,
        views_advanced=max(
            replica.view - start for replica, start in zip(system.replicas, start_views, strict=True)
        ),
        timeouts=timeouts, events=system.sim.events_processed,
        live_pending=system.sim.pending - system.sim.cancelled_pending,
        admissions=admissions, rejections=rejections,
    )


def run_repetition(workload: str, seed: int, clock_drain: bool = False) -> list[CellRun]:
    gc.collect()
    return [run_cell(cell, seed, clock_drain) for cell in CELLS[workload]]


def _normalised_wall_s(rep: list[CellRun]) -> float:
    """Wall seconds of one repetition, each chunk scaled by the probes beside it."""
    return sum(
        common.host_normalised(wall, (before + after) / 2.0)
        for run in rep
        for wall, before, after in zip(
            run.chunk_walls, run.probes[:-1], run.probes[1:], strict=True
        )
    )


def _rep_digest(rep: list[CellRun]) -> str:
    return hashlib.sha256("".join(run.digest for run in rep).encode()).hexdigest()[:16]


def _max_gap(times_ms: list[float], after_ms: float) -> float:
    """Longest interval between consecutive replies that ends after ``after_ms``."""
    gaps = [b - a for a, b in zip(times_ms, times_ms[1:], strict=False) if b >= after_ms]
    return max(gaps, default=0.0)


def _problems(rep: list[CellRun]) -> list[str]:
    problems = []
    for run in rep:
        if not run.safe:
            problems.append(f"{run.cell.label}: strict SafetyOracle flagged a violation")
        if run.duplicate_completions:
            problems.append(f"{run.cell.label}: {run.duplicate_completions} tx completed twice")
        if run.committed_tx > run.attempted and run.cell.clients:
            problems.append(f"{run.cell.label}: more transactions completed than were due")
        if not run.committed_tx:
            problems.append(f"{run.cell.label}: nothing committed")
    return problems


def _virtual_detail(rep: list[CellRun]) -> dict[str, Any]:
    detail: dict[str, Any] = {}
    for run in rep:
        p50, tail, fraction = stats.latency_summary(run.latencies_ms)
        detail[run.cell.label] = {
            "committed_tx": run.committed_tx,
            "attempted": run.attempted,
            "horizon_ms": run.cell.horizon_ms,
            "horizon_tx": run.horizon_tx,
            "virtual_tx_per_s": run.virtual_tx_per_s,
            "last_reply_ms": run.reply_times_ms[-1] if run.reply_times_ms else None,
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "latency_tail_fraction": fraction,
            "latency_samples": len(run.latencies_ms),
            "views_advanced": run.views_advanced,
            "timeouts": run.timeouts,
        }
    return detail


def run_untraced(
    workload: str, seed: int, seconds: float, import_s: float, quick: bool = False
) -> common.Outcome:
    # The first repetition fills the program's caches and lazy tables; it is
    # set-up, not measurement (but must agree with the others all the same).
    warmup = run_repetition(workload, seed)
    reps: list[list[CellRun]] = []
    min_reps = 1 if quick else MIN_REPETITIONS
    started = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - started < seconds:
        reps.append(run_repetition(workload, seed))

    first = reps[0]
    problems = _problems(first)
    digests = {_rep_digest(rep) for rep in (warmup, *reps)}
    if len(digests) != 1:
        problems.append(f"repetitions of one seed disagree: digests {sorted(digests)}")
    primary = next(run for run in first if run.cell.primary)
    wall_s = statistics.median(_normalised_wall_s(rep) for rep in reps)
    horizon_tx = sum(run.horizon_tx for run in first)
    attempted = sum(run.attempted for run in first)
    failed = sum(run.failed for run in first)
    p50, tail, fraction = stats.latency_summary(primary.latencies_ms)
    build_s = statistics.median(sum(run.build_s for run in rep) for rep in reps)
    all_probes = [probe for rep in reps for run in rep for probe in run.probes]
    crash_at = primary.cell.crash[1] if primary.cell.crash else 0.0
    metrics = {
        "setup_s": import_s + build_s + _normalised_wall_s(warmup),
        "committed_tx_per_s": primary.virtual_tx_per_s,
        "latency_p50_ms": p50,
        "wall_us_per_tx": wall_s * 1e6 / horizon_tx,
        "served_share": 1.0 - failed / attempted,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    detail: dict[str, Any] = {
        "clock": "virtual (committed_tx_per_s, latency_p50_ms); "
                 "host-normalised wall (wall_us_per_tx, warm-up part of setup_s); wall (rest)",
        "repetitions": len(reps),
        "rep_wall_s": [round(sum(sum(run.chunk_walls) for run in rep), 4) for rep in reps],
        "rep_normalised_wall_s": [round(_normalised_wall_s(rep), 4) for rep in reps],
        "raw_wall_us_per_tx": statistics.median(
            sum(sum(run.chunk_walls) for run in rep) for rep in reps
        ) * 1e6 / horizon_tx,
        "probe_us": statistics.median(all_probes) * 1e6,
        "import_s": import_s,
        "build_s": build_s,
        "warmup_repetition_s": _normalised_wall_s(warmup),
        "latency_samples": len(primary.latencies_ms),
        "cells": _virtual_detail(first),
        "exact": {
            "digest": next(iter(digests)) if len(digests) == 1 else sorted(digests),
            "attempted": attempted,
            "failed": failed,
            "latency_tail_ms": tail,
            "latency_tail_fraction": fraction,
            "outage_ms": _max_gap(primary.reply_times_ms, crash_at) if crash_at else None,
        },
        "flags": ["host speed moved during the run"] if common.host_drifted(all_probes) else [],
    }
    return common.Outcome(
        workload=workload, seed=seed, traced=False, correct=not problems,
        attempted=attempted, failed=failed, metrics=metrics, detail=detail, problems=problems,
    )


def run_traced(workload: str, seed: int, seconds: float, out_dir: Path) -> common.Outcome:
    """One untraced and one traced repetition of the same seed, then the micro cells.

    ``seconds`` is not used: the work of a repetition is fixed by the seed.
    """
    del seconds
    calib = common.calibrate()
    plain = run_repetition(workload, seed, clock_drain=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_repetition(workload, seed, clock_drain=True)
    finally:
        tracer.uninstall()
    problems = _problems(traced)
    if not tracing.Tracer.restored():
        problems.append("tracer wrappers were not fully restored")
    if _rep_digest(plain) != _rep_digest(traced):
        problems.append("tracing changed the simulated result")
    traced_wall = sum(sum(run.chunk_walls) for run in traced)
    primary = next(run for run in traced if run.cell.primary)
    crash_at = primary.cell.crash[1] if primary.cell.crash else 0.0
    facts = layers.TracedFacts(
        committed_tx=sum(run.committed_tx for run in traced),
        wall_s=traced_wall,
        overhead_ratio=_normalised_wall_s(traced) / _normalised_wall_s(plain),
        calib_ops_per_s=calib,
        views_advanced=sum(run.views_advanced for run in traced),
        timeouts=sum(run.timeouts for run in traced),
        max_reply_gap_ms=_max_gap(primary.reply_times_ms, crash_at),
        latencies_ms=primary.latencies_ms,
        lags_ms=[],  # virtual time: a request is sent the instant it is due
        admissions=sum(run.admissions for run in traced),
        rejections=sum(run.rejections for run in traced),
        sim_events=sum(run.events for run in traced),
        sim_live_pending=sum(run.live_pending for run in traced),
    )
    metrics = layers.per_layer_metrics(tracer, facts, micro.run_micro_cells())
    trace_path = out_dir / f"trace-{workload}.jsonl"
    tracer.write_jsonl(trace_path, {"workload": workload, "seed": seed, "wall_s": traced_wall})
    return common.Outcome(
        workload=workload, seed=seed, traced=True, correct=not problems,
        attempted=sum(run.attempted for run in traced), failed=sum(run.failed for run in traced),
        metrics=metrics,
        detail={"trace_file": f"out/{trace_path.name}", "spans": len(tracer.spans),
                "sampled_views": sorted(tracer.sampled_views),
                "untraced_wall_s": sum(sum(run.chunk_walls) for run in plain),
                "traced_wall_s": traced_wall},
        problems=problems,
    )
