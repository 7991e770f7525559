"""Measurement plane: message, byte and latency accounting.

The paper reports throughput in Kops/s and latency in ms, and Table 1
counts protocol messages.  The :class:`Monitor` observes every network send
and every block execution so that experiments can pull those numbers out of
a finished simulation without the protocols carrying measurement code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.monitor import ExecutionRecord


@dataclass
class Monitor:
    """Accumulates counters during a simulation run."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_by_type: Counter = field(default_factory=Counter)
    bytes_by_type: Counter = field(default_factory=Counter)
    executions: list[ExecutionRecord] = field(default_factory=list)
    view_message_counts: Counter = field(default_factory=Counter)
    # Fault-injection accounting: messages suppressed or duplicated by the
    # network's fault pipeline (repro.core.faults).  Sends are still counted
    # in messages_sent - a dropped message was sent, then lost.
    messages_dropped: int = 0
    dropped_by_type: Counter = field(default_factory=Counter)
    messages_duplicated: int = 0
    duplicated_by_type: Counter = field(default_factory=Counter)

    def record_send(self, msg_type: str, size_bytes: int, view: int | None = None) -> None:
        """Called by the network for every message handed to it."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self.messages_by_type[msg_type] += 1
        self.bytes_by_type[msg_type] += size_bytes
        if view is not None:
            self.view_message_counts[view] += 1

    def record_drop(self, msg_type: str) -> None:
        """Called by the network when the fault pipeline drops a message."""
        self.messages_dropped += 1
        self.dropped_by_type[msg_type] += 1

    def record_duplicate(self, msg_type: str, copies: int = 1) -> None:
        """Called by the network when ``copies`` extra copies are injected."""
        self.messages_duplicated += copies
        self.duplicated_by_type[msg_type] += copies

    def record_execution(self, record: ExecutionRecord) -> None:
        """Called by replicas when they execute (commit) a block."""
        self.executions.append(record)

    # -- derived metrics ----------------------------------------------------

    def committed_views(self) -> set[int]:
        """Views in which at least one replica executed a block."""
        return {r.view for r in self.executions}

    def throughput_kops(self, duration_ms: float) -> float:
        """Committed transactions per second, in thousands.

        Each block is counted once (not once per replica) using the first
        replica to execute it, matching the paper's replica-side throughput.
        """
        if duration_ms <= 0:
            return 0.0
        seen: set[bytes] = set()
        txs = 0
        for rec in self.executions:
            if rec.block_hash in seen:
                continue
            seen.add(rec.block_hash)
            txs += rec.num_transactions
        return (txs / (duration_ms / 1000.0)) / 1000.0

    def mean_latency_ms(self) -> float:
        """Average proposal-to-execution latency over all executions."""
        if not self.executions:
            return 0.0
        return sum(r.latency_ms for r in self.executions) / len(self.executions)

    def latency_percentile_ms(self, percentile: float) -> float:
        """Latency percentile (nearest-rank) over all executions.

        ``percentile`` is in [0, 100]; tail latencies (p99) expose
        view-change stalls that the mean smooths over.
        """
        if not (0.0 <= percentile <= 100.0):
            raise ValueError("percentile must be within [0, 100]")
        if not self.executions:
            return 0.0
        ordered = sorted(r.latency_ms for r in self.executions)
        rank = max(0, min(len(ordered) - 1, round(percentile / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def latency_stddev_ms(self) -> float:
        """Population standard deviation of execution latencies."""
        if len(self.executions) < 2:
            return 0.0
        mean = self.mean_latency_ms()
        var = sum((r.latency_ms - mean) ** 2 for r in self.executions) / len(self.executions)
        return var**0.5

    def messages_per_view(self, view: int) -> int:
        """Protocol messages attributed to a given view (Table 1 check)."""
        return self.view_message_counts[view]
