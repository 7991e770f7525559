"""The open-loop load generator: determinism, percentiles, net smoke."""

import asyncio

from repro.bench.load import (
    LoadReport,
    load_config,
    percentile,
    run_load_net,
    run_load_sim,
)


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile([], 0.5) == 0.0
    assert percentile(values, 0.50) == 2.0
    assert percentile(values, 0.99) == 4.0
    assert percentile([7.0], 0.50) == 7.0


def quick_config(**overrides):
    params = dict(
        rate_per_s=2_000.0,
        senders=4,
        seed=11,
        payload_bytes=32,
        block_size=50,
        timeout_ms=500.0,
    )
    params.update(overrides)
    return load_config("damysus", **params)


def test_load_sim_commits_and_completes():
    report = run_load_sim(quick_config(), duration_ms=600.0, rate_per_s=2_000.0)
    assert report.runtime == "sim"
    assert report.committed_blocks > 0
    assert report.completed > 0
    assert 0 < report.p50_ms <= report.p99_ms
    assert report.admission["accepted"] > 0


def test_load_sim_commits_every_transaction_once():
    """Clients broadcast to every replica; the chain still carries - and the
    ledger applies - each request once (it was n copies before)."""
    report = run_load_sim(quick_config(), duration_ms=600.0, rate_per_s=2_000.0)
    assert report.commit_multiplicity == 1.0
    assert report.filtered_duplicates == 0
    # The replicas that did not propose a transaction dropped their copy.
    assert report.purged_on_commit > report.completed
    assert ["commit multiplicity", "1.00"] in report.summary_rows()
    assert report.to_dict()["commit_multiplicity"] == 1.0


def test_load_sim_same_seed_is_bit_identical():
    """Two runs with the same seed produce byte-for-byte equal reports."""
    first = run_load_sim(quick_config(), duration_ms=600.0, rate_per_s=2_000.0)
    second = run_load_sim(quick_config(), duration_ms=600.0, rate_per_s=2_000.0)
    assert first == second
    assert first.to_dict() == second.to_dict()


def test_load_sim_seed_changes_the_run():
    base = run_load_sim(quick_config(), duration_ms=600.0, rate_per_s=2_000.0)
    other = run_load_sim(
        quick_config(seed=12), duration_ms=600.0, rate_per_s=2_000.0
    )
    assert base != other


def test_load_sim_overload_reports_drops():
    """A tiny rate-limited pool under heavy offered load sheds traffic."""
    config = quick_config(
        rate_per_s=5_000.0,
        mempool_max_txs=40,
        sender_rate_limit=0.05,
        sender_rate_burst=4.0,
    )
    report = run_load_sim(config, duration_ms=600.0, rate_per_s=5_000.0)
    assert report.admission["rate-limited"] > 0
    assert report.dropped > 0
    assert report.drop_rate > 0.0


def test_load_report_serializes():
    report = run_load_sim(quick_config(), duration_ms=400.0, rate_per_s=2_000.0)
    data = report.to_dict()
    assert isinstance(data["admission"], dict)
    rows = report.summary_rows()
    assert ["runtime", "sim"] in rows
    assert isinstance(report, LoadReport)


def test_load_net_smoke():
    """The same machines over real localhost TCP commit and complete."""
    config = quick_config(rate_per_s=400.0, senders=2, timeout_ms=1_000.0)
    report = asyncio.run(
        run_load_net(config, duration_s=3.0, rate_per_s=400.0, n=4)
    )
    assert report.runtime == "net"
    assert report.committed_blocks >= 1
    assert report.completed > 0
    assert report.p50_ms > 0
