"""The ledger's vocabulary: workloads, metric names, units, directions, bounds.

``BENCHMARK.json`` at the repository root must list exactly these names
(``test_ledger.py`` checks it); every later performance or simplicity
change is measured with them, so they are append-only.

Workload constants live next to the code that uses them
(:mod:`simload`, :mod:`tcpload`); this module only names things.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: share of the parent's median a change may lose.
    bound: float | None = None


#: name -> why the workload exists (one line each, also in BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "sim-load": (
        "simulator, damysus f=1, EU latencies, 16 Poisson clients at 2000 tx/s, 256 B: "
        "the full client-to-reply path where event heap and network model dominate"
    ),
    "sim-quorum": (
        "simulator, hotstuff then damysus at f=10 on world regions, synthetic full blocks: "
        "quorum-sized certificate, TEE and fan-in work; clients and mempool admission bypassed"
    ),
    "sim-leader-crash": (
        "sim-load's cluster at 500 tx/s with replica 1 crashed at 3 s and restarted at 8 s, "
        "requests still sent on schedule: time without service, deterministic per seed"
    ),
    "tcp-closed": (
        "asyncio TCP on 127.0.0.1, damysus n=3, 2 closed-loop clients with 128 requests "
        "outstanding each, 0 B: thousands of small frames; codec, framing and queue hop dominate"
    ),
    "tcp-paced-mixed": (
        "same TCP cluster, open loop: Poisson 300 tx/s, payloads of 0/256/1024 B, fees 0-100: "
        "byte-bound frames and fee-ordered drain measured as latency, not throughput"
    ),
}

SIM_WORKLOADS = ("sim-load", "sim-quorum", "sim-leader-crash")
TCP_WORKLOADS = ("tcp-closed", "tcp-paced-mixed")

#: Measured with tracing off.  Throughput and latency are in the
#: deployment's own clock - wall time on tcp-*, virtual time on sim-* (the
#: paper's simulated result, which a speed-up must leave unchanged);
#: ``wall_us_per_tx`` is always wall time.
#:
#: ``BENCHMARK.json`` allows one bound per metric, so each bound here is
#: what the *noisiest* workload needs - the TCP ones, on a shared 2-core
#: host whose speed moves by 10-20 % between ten-second runs.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("committed_tx_per_s", "tx/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("wall_us_per_tx", "us", "lower", 0.25),
    Metric("served_share", "ratio", "higher", 0.01),
    Metric("peak_rss_mb", "MiB", "lower", 0.25),
)

#: The ledger's own ``--compare`` / ``--repeat-check`` know the workload,
#: so on the simulator they hold the line the issue asked for: 0 for what
#: a seed fixes bit for bit, 0.10 for wall time and memory.
SIM_BOUNDS: dict[str, float] = {
    "committed_tx_per_s": 0.0,
    "latency_p50_ms": 0.0,
    "served_share": 0.0,
    "wall_us_per_tx": 0.10,
    "peak_rss_mb": 0.10,
}


def bound_for(workload: str, metric: Metric) -> float:
    """Regression bound of ``metric`` on ``workload`` for the ledger's own checks."""
    if workload in SIM_WORKLOADS and metric.name in SIM_BOUNDS:
        return SIM_BOUNDS[metric.name]
    if metric.bound is None:
        raise ValueError(f"{metric.name} is not an end-to-end metric")
    return metric.bound

#: One traced run per workload; no bounds.  A metric whose layer a
#: workload bypasses reads 0 there (the predicted "nothing" cells).
PER_LAYER: tuple[Metric, ...] = (
    # core.codec
    Metric("codec.encode_calls_per_tx", "count", "lower"),
    Metric("codec.encode_self_us_per_tx", "us", "lower"),
    Metric("codec.decode_calls_per_tx", "count", "lower"),
    Metric("codec.decode_self_us_per_tx", "us", "lower"),
    Metric("codec.wire_bytes_per_tx", "B", "lower"),
    Metric("codec.encode_proposal_us", "us", "lower"),
    Metric("codec.decode_proposal_us", "us", "lower"),
    Metric("codec.encode_vote_us", "us", "lower"),
    Metric("codec.decode_vote_us", "us", "lower"),
    Metric("codec.decode_client_request_us", "us", "lower"),
    # runtime.framing
    Metric("framing.feed_self_us_per_tx", "us", "lower"),
    Metric("framing.frames_per_feed", "count", "higher"),
    # runtime.asyncio_net
    Metric("transport.execute_self_us_per_tx", "us", "lower"),
    Metric("transport.sent_msgs_per_block", "count", "lower"),
    Metric("transport.sent_bytes_per_block", "B", "lower"),
    Metric("transport.dropped_msgs", "count", "lower"),
    Metric("loop.callback_self_us_per_tx", "us", "lower"),
    Metric("loop.other_us_per_tx", "us", "lower"),
    # crypto
    Metric("crypto.sign_calls_per_block", "count", "lower"),
    Metric("crypto.verify_calls_per_block", "count", "lower"),
    Metric("crypto.self_us_per_tx", "us", "lower"),
    Metric("crypto.hashing_self_us_per_tx", "us", "lower"),
    Metric("crypto.verify_memo_hit_ratio", "ratio", "higher"),
    Metric("crypto.hmac_sign_us", "us", "lower"),
    Metric("crypto.hmac_verify_us", "us", "lower"),
    Metric("crypto.schnorr_sign_us", "us", "lower"),
    Metric("crypto.schnorr_verify_us", "us", "lower"),
    Metric("crypto.schnorr_batch_verify_us_per_sig", "us", "lower"),
    # tee
    Metric("tee.calls_per_block", "count", "lower"),
    Metric("tee.self_us_per_tx", "us", "lower"),
    Metric("tee.refusals", "count", "lower"),
    Metric("tee.checker_sign_us", "us", "lower"),
    Metric("tee.checker_prepare_us", "us", "lower"),
    Metric("tee.checker_store_us", "us", "lower"),
    Metric("tee.accumulate_us", "us", "lower"),
    # mempool
    Metric("mempool.admit_self_us_per_tx", "us", "lower"),
    Metric("mempool.take_block_self_us_per_tx", "us", "lower"),
    Metric("mempool.txs_per_block", "count", "higher"),
    Metric("mempool.queue_wait_ms_p50", "ms", "lower"),
    Metric("mempool.rejected_share", "ratio", "lower"),
    Metric("mempool.admit_us", "us", "lower"),
    Metric("mempool.take_block_us_per_tx", "us", "lower"),
    Metric("mempool.admit_at_cap_us", "us", "lower"),
    # protocols
    Metric("protocols.handler_self_us_per_tx", "us", "lower"),
    Metric("protocols.msgs_per_block", "count", "lower"),
    Metric("protocols.views_per_commit", "ratio", "lower"),
    Metric("protocols.timeouts", "count", "lower"),
    Metric("protocols.empty_block_share", "ratio", "lower"),
    Metric("protocols.max_reply_gap_ms", "ms", "lower"),
    # core.executor
    Metric("executor.execute_self_us_per_tx", "us", "lower"),
    # sim (sim.events, sim.network, runtime.sim)
    Metric("sim.events_per_s", "1/s", "higher"),
    Metric("sim.events_per_tx", "count", "lower"),
    Metric("sim.dispatch_self_us_per_tx", "us", "lower"),
    Metric("sim.cancelled_event_share", "ratio", "lower"),
    Metric("sim.schedule_run_us_per_event", "us", "lower"),
    # load generator / host
    Metric("loadgen.latency_p50_ms", "ms", "lower"),
    Metric("loadgen.latency_p99_ms", "ms", "lower"),
    Metric("loadgen.lag_p50_ms", "ms", "lower"),
    Metric("loadgen.lag_p99_ms", "ms", "lower"),
    Metric("loadgen.self_share", "ratio", "lower"),
    Metric("host.calib_ops_per_s", "1/s", "higher"),
    Metric("host.cpus", "count", "higher"),
    # the ledger itself
    Metric("ledger.attributed_share", "ratio", "higher"),
    Metric("ledger.trace_overhead_ratio", "ratio", "lower"),
)

BY_NAME: dict[str, Metric] = {metric.name: metric for metric in (*END_TO_END, *PER_LAYER)}
