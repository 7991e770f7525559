"""The two localhost-TCP workloads.

Three Damysus replicas and two benchmark client machines share one
process and one event loop, each on its own ``AsyncioRuntime`` with real
sockets on 127.0.0.1.  No delay is injected, so latency here is
processor time only - and the load generator competes with the replicas
for it (``loadgen.self_share`` in the traced run says how much).

Wall-clock runs do not repeat.  The measured span is cut into ten
back-to-back windows and a request belongs to the window it was due in.
A task on the same event loop times the host probe (``common.probe``)
every 25 ms; each window's median latency - and, on the closed-loop
workload, where the host and not the schedule sets it, its throughput -
is scaled to the reference host by the mean probe of that window, and
the median window is reported.  Raw pooled figures - stalls and collector pauses
included - are printed beside them, with the latency tail, which no
estimator tried here could hold within 25 % between runs and which is
therefore reported but not gated.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import clients as bench_clients
import common
import layers
import micro
import stats
import tracing
from repro.runtime.asyncio_net import AsyncioRuntime, WallClock, build_machine

REPLICAS = 3
CLIENTS = 2


@dataclass(frozen=True)
class Plan:
    """How one run is laid out in time."""

    boots: int  # cluster boots; ``setup_s`` reports their median
    warmup_s: float
    windows: int


FULL = Plan(boots=3, warmup_s=2.0, windows=10)
QUICK = Plan(boots=1, warmup_s=0.5, windows=1)
#: Seconds between host probes while measuring (about 1 % of the loop's time).
PROBE_EVERY_S = 0.025
#: How long in-flight requests may take to drain after the last window.
GRACE_S = 2.0
#: Share of ``--seconds`` a traced run spends untraced, half before and
#: half after the traced span so that warm-up drift cancels in the ratio.
UNTRACED_SHARE = 0.4


@dataclass(frozen=True)
class Spec:
    """Traffic of one TCP workload (the cluster is the same for both)."""

    #: Closed loop: requests each client keeps outstanding (0 = open loop).
    outstanding: int = 0
    #: Open loop: aggregate Poisson rate over all clients.
    rate_per_s: float = 0.0
    payload_mix: tuple[int, ...] = (0,)
    max_fee: int = 0


SPECS: dict[str, Spec] = {
    "tcp-closed": Spec(outstanding=128),
    "tcp-paced-mixed": Spec(rate_per_s=300.0, payload_mix=(0, 256, 1024), max_fee=100),
}


class Cluster:
    """One booted deployment: replicas, clients, and their runtimes."""

    def __init__(self, spec: Spec, seed: int, schedule_s: float) -> None:
        self.clock = WallClock()
        client_pids = {cid: REPLICAS + cid for cid in range(CLIENTS)}
        self.replicas = [
            build_machine(
                "damysus", pid, REPLICAS, self.clock, seed=seed, payload_bytes=0,
                block_size=400, client_pids=client_pids,
                config_overrides={"open_loop": False, "num_clients": CLIENTS},
            )
            for pid in range(REPLICAS)
        ]
        replica_pids = list(range(REPLICAS))
        self.clients: list[bench_clients.BenchClient] = []
        for cid, pid in client_pids.items():
            if spec.outstanding:
                self.clients.append(bench_clients.ClosedLoopClient(
                    pid, self.clock, cid, replica_pids, spec.outstanding,
                    spec.payload_mix[0],
                ))
            else:
                schedule = bench_clients.poisson_schedule(
                    seed, cid, rate_per_s=spec.rate_per_s / CLIENTS, duration_s=schedule_s,
                    payload_mix=spec.payload_mix, max_fee=spec.max_fee,
                )
                self.clients.append(
                    bench_clients.PacedClient(pid, self.clock, cid, replica_pids, schedule)
                )
        self.runtimes = [AsyncioRuntime(machine) for machine in (*self.replicas, *self.clients)]

    async def start(self) -> None:
        addresses = {}
        for runtime in self.runtimes:
            addresses[runtime.machine.pid] = await runtime.start_server()
        for runtime in self.runtimes:
            runtime.set_peers(addresses)
        for runtime in self.runtimes:
            runtime.start_machine()

    async def first_commit(self, timeout_s: float = 30.0) -> None:
        """Return once every client holds a committed reply."""
        deadline = time.monotonic() + timeout_s
        while not all(
            any(record.done_ms is not None for record in client.records)
            for client in self.clients
        ):
            if time.monotonic() > deadline:
                raise TimeoutError("cluster booted but committed nothing")
            await asyncio.sleep(0.002)

    async def drain(self) -> None:
        """Stop the clients and give requests in flight ``GRACE_S`` to finish."""
        for client in self.clients:
            client.stop()
        deadline = time.monotonic() + GRACE_S
        while any(client.inflight for client in self.clients) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        for runtime in self.runtimes:
            await runtime.close()

    # -- reading -------------------------------------------------------------

    def records(self) -> list[bench_clients.RequestRecord]:
        """Every due request of every client, sent or not."""
        out: list[bench_clients.RequestRecord] = []
        for client in self.clients:
            out.extend(client.records)
            if isinstance(client, bench_clients.PacedClient):
                out.extend(client.unsent())
        return out

    def counters(self) -> dict[str, int]:
        """Monotone transport / protocol / mempool counters, summed over replicas."""
        admissions, rejections = common.admissions_and_rejections(self.replicas)
        return {
            "sent_msgs": sum(rt.sent_messages for rt in self.runtimes),
            "sent_bytes": sum(rt.sent_bytes for rt in self.runtimes),
            "dropped_msgs": sum(rt.dropped_messages for rt in self.runtimes),
            "view": max(replica.view for replica in self.replicas),
            "timeouts": max(replica.pacemaker.timeouts_fired for replica in self.replicas),
            "admissions": admissions,
            "rejections": rejections,
        }

    def chain_check(self) -> tuple[bool, str, list[int]]:
        """(prefix-consistent?, digest of the common prefix, heights)."""
        chains = [[block.hash for block in replica.ledger.executed] for replica in self.replicas]
        shortest = min(len(chain) for chain in chains)
        consistent = all(chain[:shortest] == chains[0][:shortest] for chain in chains)
        digest = hashlib.sha256(b"".join(chains[0][:shortest])).hexdigest()[:16]
        return consistent, digest, [len(chain) for chain in chains]


@dataclass
class WindowStats:
    start_ms: float
    end_ms: float
    attempted: int
    failed: int
    tx_per_s: float
    latencies_ms: list[float]
    lags_ms: list[float]
    done_times_ms: list[float]


def window_stats(
    records: list[bench_clients.RequestRecord], start_ms: float, end_ms: float
) -> WindowStats:
    """Requests *due* in ``[start_ms, end_ms)``, whenever they completed."""
    due = [record for record in records if start_ms <= record.due_ms < end_ms]
    done = [record for record in due if record.done_ms is not None]
    return WindowStats(
        start_ms=start_ms,
        end_ms=end_ms,
        attempted=len(due),
        failed=len(due) - len(done),
        tx_per_s=len(done) / ((end_ms - start_ms) / 1000.0),
        latencies_ms=[record.done_ms - record.due_ms for record in done],  # type: ignore[operator]
        lags_ms=[record.sent_ms - record.due_ms for record in due if record.sent_ms is not None],
        done_times_ms=sorted(record.done_ms for record in done),  # type: ignore[type-var]
    )


async def _probe_host(clock: WallClock, samples: list[tuple[float, float]]) -> None:
    """Time the host probe every ``PROBE_EVERY_S`` until cancelled."""
    while True:
        samples.append((clock.now, common.probe()))
        await asyncio.sleep(PROBE_EVERY_S)


def _mean_probe(probes: list[tuple[float, float]], start_ms: float, end_ms: float) -> float:
    """Mean host probe inside ``[start_ms, end_ms)``; over all probes if none fell there."""
    inside = [took for at, took in probes if start_ms <= at < end_ms]
    return statistics.fmean(inside or [took for _at, took in probes])


async def _boot(
    spec: Spec, seed: int, schedule_s: float, count: int
) -> tuple[Cluster, list[float]]:
    """Boot ``count`` clusters in turn; keep the last one running."""
    boots: list[float] = []
    cluster: Cluster | None = None
    for _ in range(count):
        if cluster is not None:
            await cluster.close()
        started = time.perf_counter()
        cluster = Cluster(spec, seed, schedule_s)
        await cluster.start()
        await cluster.first_commit()
        boots.append(time.perf_counter() - started)
    if cluster is None:
        raise ValueError("count must be positive")
    return cluster, boots


def _end_problems(cluster: Cluster) -> tuple[list[str], dict[str, Any]]:
    consistent, digest, heights = cluster.chain_check()
    problems = []
    if not consistent:
        problems.append("replicas disagree on the committed chain")
    strays = sum(client.stray_replies for client in cluster.clients)
    if strays:
        problems.append(f"{strays} replies named transactions no client submitted")
    return problems, {"chain_digest": digest, "chain_heights": heights}


async def _untraced(
    workload: str, seed: int, seconds: float, import_s: float, plan: Plan
) -> common.Outcome:
    spec = SPECS[workload]
    cluster, boots = await _boot(spec, seed, plan.warmup_s + seconds + 1.0, plan.boots)
    probes: list[tuple[float, float]] = []
    prober = asyncio.ensure_future(_probe_host(cluster.clock, probes))
    try:
        gc.collect()
        window_ms = seconds * 1000.0 / plan.windows
        first_ms = cluster.clock.now + plan.warmup_s * 1000.0
        await asyncio.sleep(plan.warmup_s + seconds)
        await cluster.drain()
    finally:
        prober.cancel()
        await asyncio.gather(prober, return_exceptions=True)
        await cluster.close()

    records = cluster.records()
    windows = [
        window_stats(records, first_ms + k * window_ms, first_ms + (k + 1) * window_ms)
        for k in range(plan.windows)
    ]
    problems, chain = _end_problems(cluster)
    if any(not window.latencies_ms for window in windows):
        problems.append("a measurement window completed nothing")
        windows = [window for window in windows if window.latencies_ms]
    ordered = [sorted(window.latencies_ms) for window in windows]
    pooled = sorted(latency for lat in ordered for latency in lat)
    attempted = sum(window.attempted for window in windows)
    failed = sum(window.failed for window in windows)
    # Each window's figures, scaled to the reference host by its own probes.
    probe_s = [_mean_probe(probes, window.start_ms, window.end_ms) for window in windows]
    if spec.outstanding:
        tx_per_s = statistics.median(
            window.tx_per_s / common.host_normalised(1.0, probe)
            for window, probe in zip(windows, probe_s, strict=True)
        )
    else:
        # Open loop: the schedule sets throughput, the host only the latency.
        tx_per_s = len(pooled) / (window_ms * len(windows) / 1000.0)
    p50_ms = statistics.median(
        common.host_normalised(stats.percentile(lat, 0.5), probe)
        for lat, probe in zip(ordered, probe_s, strict=True)
    )
    lags = sorted(lag for window in windows for lag in window.lags_ms)
    raw_p50 = [stats.percentile(lat, 0.5) for lat in ordered]
    lag_p99 = statistics.median(
        stats.percentile(sorted(window.lags_ms), 0.99) if window.lags_ms else 0.0
        for window in windows
    )
    tail = stats.tail_fraction(len(pooled))
    metrics = {
        "setup_s": import_s + statistics.median(boots) + plan.warmup_s,
        "committed_tx_per_s": tx_per_s,
        "latency_p50_ms": p50_ms,
        "wall_us_per_tx": 1e6 / tx_per_s,
        "served_share": 1.0 - failed / attempted,
        "peak_rss_mb": common.peak_rss_mb(),
    }
    flags = []
    if common.host_drifted(probe_s):
        flags.append("host speed moved during the run")
    # Like with like: raw median window on both sides.
    if lag_p99 > statistics.median(raw_p50):
        flags.append("load generator lag p99 exceeds latency p50")
    detail: dict[str, Any] = {
        "clock": "wall, host-normalised; no delay injected, so latency is processor time only",
        "windows": len(windows),
        "window_s": window_ms / 1000.0,
        "window_tx_per_s": [round(window.tx_per_s, 1) for window in windows],
        "window_latency_samples": [len(lat) for lat in ordered],
        "window_latency_p50_ms": [round(value, 3) for value in raw_p50],
        "window_probe_us": [round(probe * 1e6, 1) for probe in probe_s],
        "pooled_tx_per_s": len(pooled) / (window_ms * len(windows) / 1000.0),
        "pooled_latency_p50_ms": stats.percentile(pooled, 0.5),
        "pooled_latency_tail_ms": stats.percentile(pooled, tail),
        "pooled_latency_tail_fraction": tail,
        "latency_samples": len(pooled),
        "boot_s": boots,
        "import_s": import_s,
        "lag_p50_ms": stats.percentile(lags, 0.5) if lags else 0.0,
        "lag_p99_ms": lag_p99,
        "pooled_lag_p99_ms": stats.percentile(lags, 0.99) if lags else 0.0,
        "dropped_msgs": cluster.counters()["dropped_msgs"],
        **chain,
        "exact": {},
        "flags": flags,
    }
    return common.Outcome(
        workload=workload, seed=seed, traced=False, correct=not problems,
        attempted=attempted, failed=failed, metrics=metrics, detail=detail, problems=problems,
    )


async def _traced(workload: str, seed: int, seconds: float, out_dir: Path) -> common.Outcome:
    spec = SPECS[workload]
    calib = common.calibrate()
    plain_s = seconds * UNTRACED_SHARE
    traced_s = seconds - plain_s
    cluster, _boots = await _boot(spec, seed, FULL.warmup_s + seconds + 1.0, 1)
    tracer = tracing.Tracer()
    probes: list[tuple[float, float]] = []
    prober = asyncio.ensure_future(_probe_host(cluster.clock, probes))
    try:
        gc.collect()
        await asyncio.sleep(FULL.warmup_s)
        plain_from = cluster.clock.now
        await asyncio.sleep(plain_s / 2)
        traced_from = cluster.clock.now
        before = cluster.counters()
        tracer.install()
        started = time.perf_counter()
        try:
            await asyncio.sleep(traced_s)
        finally:
            wall_s = time.perf_counter() - started
            tracer.uninstall()
        traced_to = cluster.clock.now
        after = cluster.counters()
        await asyncio.sleep(plain_s / 2)
        plain_to = cluster.clock.now
        await cluster.drain()
    finally:
        prober.cancel()
        await asyncio.gather(prober, return_exceptions=True)
        await cluster.close()

    records = cluster.records()
    before_span = window_stats(records, plain_from, traced_from)
    after_span = window_stats(records, traced_to, plain_to)
    traced = window_stats(records, traced_from, traced_to)
    plain_latencies = before_span.latencies_ms + after_span.latencies_ms
    plain_tx_per_s = len(plain_latencies) / (
        (traced_from - plain_from + plain_to - traced_to) / 1000.0
    )
    problems, chain = _end_problems(cluster)
    if not tracing.Tracer.restored():
        problems.append("tracer wrappers were not fully restored")
    if not before_span.latencies_ms or not after_span.latencies_ms or not traced.latencies_ms:
        problems.append("a measurement window completed nothing")
        overhead = 0.0
    else:
        # Both spans scaled to the reference host, so the ratio is tracing
        # and not the host changing its mind between them.
        plain_probe = statistics.fmean([
            _mean_probe(probes, plain_from, traced_from), _mean_probe(probes, traced_to, plain_to)
        ])
        slowdown = _mean_probe(probes, traced_from, traced_to) / plain_probe
        if spec.outstanding:
            overhead = plain_tx_per_s / traced.tx_per_s / slowdown
        else:
            # The offered rate pins throughput; tracing shows up as latency.
            overhead = (
                statistics.median(traced.latencies_ms) / statistics.median(plain_latencies)
            ) / slowdown
    gaps = [b - a for a, b in zip(traced.done_times_ms, traced.done_times_ms[1:], strict=False)]
    facts = layers.TracedFacts(
        committed_tx=len(traced.latencies_ms),
        wall_s=wall_s,
        overhead_ratio=overhead,
        calib_ops_per_s=calib,
        views_advanced=after["view"] - before["view"],
        timeouts=after["timeouts"] - before["timeouts"],
        max_reply_gap_ms=max(gaps, default=0.0),
        latencies_ms=traced.latencies_ms,
        lags_ms=traced.lags_ms,
        admissions=after["admissions"] - before["admissions"],
        rejections=after["rejections"] - before["rejections"],
        sent_msgs=after["sent_msgs"] - before["sent_msgs"],
        sent_bytes=after["sent_bytes"] - before["sent_bytes"],
        dropped_msgs=after["dropped_msgs"] - before["dropped_msgs"],
    )
    metrics = layers.per_layer_metrics(tracer, facts, micro.run_micro_cells())
    trace_path = out_dir / f"trace-{workload}.jsonl"
    tracer.write_jsonl(trace_path, {"workload": workload, "seed": seed, "wall_s": wall_s})
    return common.Outcome(
        workload=workload, seed=seed, traced=True, correct=not problems,
        attempted=before_span.attempted + traced.attempted + after_span.attempted,
        failed=before_span.failed + traced.failed + after_span.failed,
        metrics=metrics,
        detail={"trace_file": f"out/{trace_path.name}", "spans": len(tracer.spans),
                "sampled_views": sorted(tracer.sampled_views),
                "untraced_tx_per_s": plain_tx_per_s, "traced_tx_per_s": traced.tx_per_s,
                **chain},
        problems=problems,
    )


def run_untraced(
    workload: str, seed: int, seconds: float, import_s: float, quick: bool = False
) -> common.Outcome:
    return asyncio.run(_untraced(workload, seed, seconds, import_s, QUICK if quick else FULL))


def run_traced(workload: str, seed: int, seconds: float, out_dir: Path) -> common.Outcome:
    return asyncio.run(_traced(workload, seed, seconds, out_dir))
