"""Tests for the measurement monitor."""

import pytest

from repro.sim.monitor import ExecutionRecord, Monitor


def record(replica=0, view=1, block=b"b1", txs=10, proposed=0.0, executed=50.0):
    return ExecutionRecord(
        replica=replica,
        view=view,
        block_hash=block,
        num_transactions=txs,
        proposed_at=proposed,
        executed_at=executed,
    )


def test_latency_of_record():
    assert record(proposed=10.0, executed=35.0).latency_ms == 25.0


def test_throughput_counts_each_block_once():
    monitor = Monitor()
    for replica in range(4):  # same block executed at 4 replicas
        monitor.record_execution(record(replica=replica, block=b"x", txs=100))
    monitor.record_execution(record(replica=0, view=2, block=b"y", txs=100))
    # 200 txs over 1 second = 0.2 Kops.
    assert monitor.throughput_kops(1000.0) == pytest.approx(0.2)


def test_throughput_zero_duration():
    assert Monitor().throughput_kops(0.0) == 0.0


def test_mean_latency():
    monitor = Monitor()
    monitor.record_execution(record(proposed=0.0, executed=10.0))
    monitor.record_execution(record(view=2, block=b"y", proposed=0.0, executed=30.0))
    assert monitor.mean_latency_ms() == pytest.approx(20.0)


def test_mean_latency_empty():
    assert Monitor().mean_latency_ms() == 0.0


def test_committed_views():
    monitor = Monitor()
    monitor.record_execution(record(view=1))
    monitor.record_execution(record(view=3, block=b"z"))
    assert monitor.committed_views() == {1, 3}


def test_record_send_accounting():
    monitor = Monitor()
    monitor.record_send("vote", 100, view=2)
    monitor.record_send("vote", 100, view=2)
    monitor.record_send("proposal", 5000, view=2)
    assert monitor.messages_sent == 3
    assert monitor.bytes_sent == 5200
    assert monitor.messages_by_type["vote"] == 2
    assert monitor.bytes_by_type["proposal"] == 5000
    assert monitor.view_message_counts[2] == 3
    assert monitor.view_message_counts[9] == 0
