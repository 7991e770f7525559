"""Turn one traced run into the per-layer metrics named in :mod:`workloads`.

``*_self_us_per_tx`` is a layer's traced self time (span minus child
spans) divided by the transactions committed in the traced span; counts
are taken by the tracer where the work happens.  The runner supplies the
facts no wrapper can see (transport counters, view numbers, lags).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import common
import stats
import workloads
from tracing import Tracer

#: Trusted-component entry points that would each be one enclave call
#: (``tee.accumulate`` is the host-side loop around three of them).
TEE_ECALLS = (
    "tee.checker_sign", "tee.checker_prepare", "tee.checker_store",
    "tee.checker_checkpoint", "tee.acc_start", "tee.acc_accum", "tee.acc_finalize",
)


@dataclass
class TracedFacts:
    """What the runner observed around the traced span."""

    committed_tx: int
    wall_s: float
    #: Traced / untraced value of the workload's primary end-to-end metric.
    overhead_ratio: float
    calib_ops_per_s: float
    views_advanced: int = 0
    timeouts: int = 0
    max_reply_gap_ms: float = 0.0
    #: Due-to-committed-reply latencies seen in the traced span (so
    #: inflated by the tracing overhead), and send-minus-due lags.
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    admissions: int = 0
    rejections: int = 0
    # TCP only
    sent_msgs: int = 0
    sent_bytes: int = 0
    dropped_msgs: int = 0
    # simulator only
    sim_events: int = 0
    sim_live_pending: int = 0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def per_layer_metrics(
    tracer: Tracer, facts: TracedFacts, micro_cells: dict[str, float]
) -> dict[str, float]:
    tx = facts.committed_tx
    blocks = len(tracer.block_sizes)
    wall_ns = facts.wall_s * 1e9

    def self_us_per_tx(layer: str) -> float:
        return _per(tracer.layer_self_ns(layer) / 1e3, tx)

    computed = tracer.calls("crypto.verify") + tracer.units("crypto.verify_many")
    lookups = tracer.calls("crypto.verify_cached") + tracer.units("crypto.verify_many_cached")
    cancels = tracer.calls("sim.cancel")
    scheduled = facts.sim_events + cancels + facts.sim_live_pending
    feeds = tracer.calls("framing.feed")
    lag_p50, lag_tail, _ = stats.latency_summary(facts.lags_ms) if facts.lags_ms else (0.0, 0.0, 0)
    lat_p50, lat_tail, _ = (
        stats.latency_summary(facts.latencies_ms) if facts.latencies_ms else (0.0, 0.0, 0)
    )
    waits = sorted(tracer.queue_waits_ms)
    metrics = {
        "codec.encode_calls_per_tx": _per(tracer.calls("codec.encode"), tx),
        "codec.encode_self_us_per_tx": _per(tracer.self_ns("codec.encode") / 1e3, tx),
        "codec.decode_calls_per_tx": _per(tracer.calls("codec.decode"), tx),
        "codec.decode_self_us_per_tx": _per(tracer.self_ns("codec.decode") / 1e3, tx),
        "codec.wire_bytes_per_tx": _per(tracer.units("codec.encode"), tx),
        "framing.feed_self_us_per_tx": self_us_per_tx("runtime.framing"),
        "framing.frames_per_feed": _per(tracer.units("framing.feed"), feeds),
        "transport.execute_self_us_per_tx": _per(tracer.self_ns("transport.execute") / 1e3, tx),
        "transport.sent_msgs_per_block": _per(facts.sent_msgs, blocks),
        "transport.sent_bytes_per_block": _per(facts.sent_bytes, blocks),
        "transport.dropped_msgs": float(facts.dropped_msgs),
        "loop.callback_self_us_per_tx": _per(tracer.self_ns("loop.callback") / 1e3, tx),
        "loop.other_us_per_tx": _per((wall_ns - tracer.covered_ns) / 1e3, tx),
        "crypto.sign_calls_per_block": _per(tracer.calls("crypto.sign"), blocks),
        "crypto.verify_calls_per_block": _per(computed, blocks),
        "crypto.self_us_per_tx": self_us_per_tx("crypto"),
        "crypto.hashing_self_us_per_tx": self_us_per_tx("crypto.hashing"),
        "crypto.verify_memo_hit_ratio": (
            min(1.0, max(0.0, 1.0 - computed / lookups)) if lookups else 0.0
        ),
        "tee.calls_per_block": _per(sum(tracer.calls(name) for name in TEE_ECALLS), blocks),
        "tee.self_us_per_tx": self_us_per_tx("tee"),
        "tee.refusals": float(
            sum(tracer.stats[name].errors for name in TEE_ECALLS if name in tracer.stats)
        ),
        "mempool.admit_self_us_per_tx": _per(tracer.self_ns("mempool.admit") / 1e3, tx),
        "mempool.take_block_self_us_per_tx": _per(
            tracer.self_ns("mempool.take_block") / 1e3, tx
        ),
        "mempool.txs_per_block": _per(sum(tracer.block_sizes.values()), blocks),
        "mempool.queue_wait_ms_p50": stats.percentile(waits, 0.5) if waits else 0.0,
        "mempool.rejected_share": _per(facts.rejections, facts.admissions),
        "protocols.handler_self_us_per_tx": self_us_per_tx("protocols"),
        "protocols.msgs_per_block": _per(tracer.calls("protocols.on_message"), blocks),
        "protocols.views_per_commit": _per(facts.views_advanced, blocks),
        "protocols.timeouts": float(facts.timeouts),
        "protocols.empty_block_share": _per(
            sum(1 for size in tracer.block_sizes.values() if size == 0), blocks
        ),
        "protocols.max_reply_gap_ms": facts.max_reply_gap_ms,
        "executor.execute_self_us_per_tx": self_us_per_tx("core.executor"),
        "sim.events_per_s": _per(facts.sim_events, 1) / facts.wall_s if facts.wall_s else 0.0,
        "sim.events_per_tx": _per(facts.sim_events, tx),
        "sim.dispatch_self_us_per_tx": self_us_per_tx("sim"),
        "sim.cancelled_event_share": _per(cancels, scheduled) if facts.sim_events else 0.0,
        "loadgen.latency_p50_ms": lat_p50,
        "loadgen.latency_p99_ms": lat_tail,
        "loadgen.lag_p50_ms": lag_p50,
        "loadgen.lag_p99_ms": lag_tail,
        "loadgen.self_share": _per(tracer.layer_self_ns("loadgen"), int(wall_ns)),
        "host.calib_ops_per_s": facts.calib_ops_per_s,
        "host.cpus": float(common.cpus()),
        "ledger.attributed_share": _per(tracer.covered_ns, int(wall_ns)),
        "ledger.trace_overhead_ratio": facts.overhead_ratio,
    }
    metrics.update(micro_cells)
    expected = {metric.name for metric in workloads.PER_LAYER}
    if set(metrics) != expected:
        raise AssertionError(
            f"per-layer metrics drifted from workloads.PER_LAYER: "
            f"{sorted(set(metrics) ^ expected)}"
        )
    return {metric.name: metrics[metric.name] for metric in workloads.PER_LAYER}
