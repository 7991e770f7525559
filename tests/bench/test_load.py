"""Client-driven load: determinism, percentiles, the report on both runtimes."""

import asyncio

from repro.bench.load import LoadReport, load_config, load_report, percentile
from repro.runtime.asyncio_net import LocalCluster
from repro.runtime.sim import ConsensusSystem


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


def sim_report(config, duration_ms=600.0):
    """``config`` on the simulator for ``duration_ms``, read as ``run --rate`` reads it."""
    system = ConsensusSystem(config)
    result = system.run(duration_ms)
    rate = config.num_clients * 1000.0 / config.client_interval_ms
    return load_report("sim", system, result.committed_blocks, result.duration_ms, rate)


def test_load_sim_commits_and_completes():
    report = sim_report(quick_config())
    assert report.runtime == "sim"
    assert report.committed_blocks > 0
    assert report.completed > 0
    assert 0 < report.p50_ms <= report.p99_ms
    assert report.admission["accepted"] > 0


def test_load_sim_commits_every_transaction_once():
    """Clients broadcast to every replica; the chain still carries - and the
    ledger applies - each request once (it was n copies before)."""
    report = sim_report(quick_config())
    assert report.commit_multiplicity == 1.0
    assert report.filtered_duplicates == 0
    # The replicas that did not propose a transaction dropped their copy.
    assert report.purged_on_commit > report.completed
    assert ["commit multiplicity", "1.00"] in report.summary_rows()
    assert report.to_dict()["commit_multiplicity"] == 1.0


def test_load_sim_same_seed_is_bit_identical():
    """Two runs with the same seed produce byte-for-byte equal reports."""
    first = sim_report(quick_config())
    second = sim_report(quick_config())
    assert first == second
    assert first.to_dict() == second.to_dict()


def test_load_sim_seed_changes_the_run():
    assert sim_report(quick_config()) != sim_report(quick_config(seed=12))


def test_load_sim_overload_reports_drops():
    """A tiny rate-limited pool under heavy offered load sheds traffic."""
    config = quick_config(
        rate_per_s=5_000.0,
        mempool_max_txs=40,
        sender_rate_limit=0.05,
        sender_rate_burst=4.0,
    )
    report = sim_report(config)
    assert report.offered_rate_per_s == 5_000.0
    assert report.admission["rate-limited"] > 0
    assert report.dropped > 0
    assert report.drop_rate > 0.0


def test_load_report_serializes():
    report = sim_report(quick_config(), duration_ms=400.0)
    data = report.to_dict()
    assert isinstance(data["admission"], dict)
    rows = report.summary_rows()
    assert ["runtime", "sim"] in rows
    assert isinstance(report, LoadReport)


def test_load_tcp_smoke():
    """The same machines over real localhost TCP (N(1) = 3) commit and complete."""
    config = quick_config(rate_per_s=400.0, senders=2, timeout_ms=1_000.0)
    cluster = LocalCluster(config)
    elapsed = asyncio.run(cluster.run(3.0))
    blocks = min(rt.committed_blocks for rt in cluster.runtimes[: cluster.n])
    report = load_report("tcp", cluster, blocks, elapsed * 1000.0, 400.0)
    assert report.runtime == "tcp"
    assert report.num_replicas == 3
    assert report.committed_blocks >= 1
    assert report.completed > 0
    assert report.p50_ms > 0
