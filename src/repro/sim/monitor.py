"""Measurement plane: message, byte and latency accounting.

The paper reports throughput in Kops/s and latency in ms, and Table 1
counts protocol messages.  The :class:`Monitor` observes every network send
and every block execution so that experiments can pull those numbers out of
a finished simulation without the protocols carrying measurement code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.monitor import ExecutionRecord


class Tally(dict[Any, int]):
    """A ``Counter`` for the send path: a missing key reads 0.

    ``Counter`` defines ``__delitem__`` in Python, which routes every item
    store - each ``+=`` the network makes per send - through a Python-level
    slot; this class keeps ``dict``'s own.
    """

    def __missing__(self, key: Any) -> int:
        return 0


@dataclass
class Monitor:
    """Accumulates counters during a simulation run."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_by_type: Tally = field(default_factory=Tally)
    bytes_by_type: Tally = field(default_factory=Tally)
    executions: list[ExecutionRecord] = field(default_factory=list)
    view_message_counts: Tally = field(default_factory=Tally)
    # Fault-injection accounting: messages suppressed or duplicated by the
    # network's fault pipeline (repro.core.faults).  Sends are still counted
    # in messages_sent - a dropped message was sent, then lost.
    messages_dropped: int = 0
    dropped_by_type: Tally = field(default_factory=Tally)
    messages_duplicated: int = 0
    duplicated_by_type: Tally = field(default_factory=Tally)
    # Tallies of ``executions`` kept as records arrive, so a run's result
    # reads them without a scan: the distinct blocks, the transactions of
    # each block's first execution, the views and every latency (summed
    # when asked: ``sum`` over a list is the same number as over the
    # records on every Python, while a running float total is not on 3.12,
    # whose ``sum`` compensates).
    _blocks: set[bytes] = field(default_factory=set, repr=False)
    _block_txs: int = field(default=0, repr=False)
    _views: set[int] = field(default_factory=set, repr=False)
    _latencies: list[float] = field(default_factory=list, repr=False)

    def record_send(
        self, msg_type: str, size_bytes: int, view: int | None = None, count: int = 1
    ) -> None:
        """Called by the network for the ``count`` copies of a message it was
        handed (one per destination of a fan-out)."""
        self.messages_sent += count
        self.bytes_sent += size_bytes * count
        self.messages_by_type[msg_type] += count
        self.bytes_by_type[msg_type] += size_bytes * count
        if view is not None:
            self.view_message_counts[view] += count

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
        if record.block_hash not in self._blocks:
            self._blocks.add(record.block_hash)
            self._block_txs += record.num_transactions
        self._views.add(record.view)
        self._latencies.append(record.latency_ms)

    # -- derived metrics ----------------------------------------------------

    def committed_views(self) -> set[int]:
        """Views in which at least one replica executed a block (a copy)."""
        return set(self._views)

    def committed_view_count(self) -> int:
        """``len(committed_views())`` without the copy."""
        return len(self._views)

    def committed_block_count(self) -> int:
        """Distinct blocks executed by at least one replica."""
        return len(self._blocks)

    def throughput_kops(self, duration_ms: float) -> float:
        """Committed transactions per second, in thousands.

        Each block is counted once (not once per replica) using the first
        replica to execute it, matching the paper's replica-side throughput.
        """
        if duration_ms <= 0:
            return 0.0
        return (self._block_txs / (duration_ms / 1000.0)) / 1000.0

    def mean_latency_ms(self) -> float:
        """Average proposal-to-execution latency over all executions."""
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def latency_percentile_ms(self, percentile: float) -> float:
        """Latency percentile (nearest-rank) over all executions.

        ``percentile`` is in [0, 100]; tail latencies (p99) expose
        view-change stalls that the mean smooths over.
        """
        if not (0.0 <= percentile <= 100.0):
            raise ValueError("percentile must be within [0, 100]")
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        rank = max(0, min(len(ordered) - 1, round(percentile / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def latency_stddev_ms(self) -> float:
        """Population standard deviation of execution latencies."""
        latencies = self._latencies
        if len(latencies) < 2:
            return 0.0
        mean = self.mean_latency_ms()
        var = sum((latency - mean) ** 2 for latency in latencies) / len(latencies)
        return var**0.5

    def messages_per_view(self, view: int) -> int:
        """Protocol messages attributed to a given view (Table 1 check)."""
        return self.view_message_counts[view]
