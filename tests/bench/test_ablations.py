"""Ablations over the cost-model knobs DESIGN.md calls out.

Each isolates one mechanism behind Damysus's throughput edge over
HotStuff, on EU latencies with the calibrated cost model:

* crypto cost - Damysus checks f+1-signature certificates, not 2f+1, so
  its edge grows as verification gets dearer;
* leader egress - a leader serialises N block copies, so as egress
  dominates the edge converges to the replica ratio (3f+1)/(2f+1);
* block size - per-block overhead amortises, so throughput rises with
  block size for both while the order holds;
* compact certificates - threshold QCs help HotStuff, not enough;
* Fast-HotStuff - two phases without trusted components sit between
  HotStuff and Damysus.
"""

import dataclasses

from repro.bench.runner import ExperimentRunner
from repro.costs import CostModel


def cells(f, protocols=("damysus", "hotstuff"), payload_bytes=0, costs=None, **overrides):
    """One 5-view run per protocol; ``overrides`` go to its ``SystemConfig``."""
    runner = ExperimentRunner(
        payload_bytes=payload_bytes, views_per_run=5, repetitions=1, costs=costs or CostModel()
    )
    return {protocol: runner.run_cell(protocol, f, **overrides) for protocol in protocols}


def damysus_gain(**params):
    """Damysus's throughput over HotStuff's at f = 4."""
    run = cells(4, **params)
    return run["damysus"].throughput_kops / run["hotstuff"].throughput_kops


def test_damysus_edge_grows_with_verification_cost():
    gains = {
        verify_ms: damysus_gain(costs=dataclasses.replace(CostModel(), verify_ms=verify_ms))
        for verify_ms in (0.05, 0.25, 1.0)
    }
    assert all(gain > 1.0 for gain in gains.values()), gains
    assert gains[1.0] > gains[0.05], gains


def test_damysus_edge_converges_to_the_replica_ratio_as_egress_dominates():
    gains = {
        per_byte_ms: damysus_gain(
            payload_bytes=256,
            costs=dataclasses.replace(CostModel(), serialize_per_byte_ms=per_byte_ms),
        )
        for per_byte_ms in (1e-6, 8e-6, 8e-5)  # ~10G / 1G / 100M NIC
    }
    assert all(gain > 1.2 for gain in gains.values()), gains
    assert abs(gains[8e-5] - 13 / 9) < 0.25, gains  # (3f+1)/(2f+1) at f = 4


def test_bigger_blocks_raise_throughput_and_keep_the_order():
    runs = {size: cells(2, block_size=size) for size in (40, 400, 1600)}
    tput = {size: {p: c.throughput_kops for p, c in run.items()} for size, run in runs.items()}
    for size, row in tput.items():
        assert row["damysus"] > row["hotstuff"], (size, row)
    for protocol in ("damysus", "hotstuff"):
        assert tput[1600][protocol] > tput[40][protocol], tput


def test_compact_certificates_do_not_close_the_gap():
    """At f = 10 a list QC carries 21 x 64 B; a threshold QC one signature."""
    listed = cells(10, ("hotstuff", "damysus"))
    compact = cells(10, ("hotstuff",), compact_qcs=True)["hotstuff"]
    assert compact.throughput_kops >= listed["hotstuff"].throughput_kops
    assert listed["damysus"].throughput_kops > compact.throughput_kops


def test_fast_hotstuff_sits_between_hotstuff_and_damysus():
    run = cells(4, ("hotstuff", "fast-hotstuff", "damysus"), payload_bytes=256)
    tput = {protocol: cell.throughput_kops for protocol, cell in run.items()}
    assert tput["hotstuff"] < tput["fast-hotstuff"] < tput["damysus"], tput
    assert run["damysus"].latency_ms < run["fast-hotstuff"].latency_ms
