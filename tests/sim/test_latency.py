"""Tests for latency models, including partial synchrony."""

import pytest

from repro.errors import ConfigError
from repro.sim.latency import (
    ConstantLatency,
    MatrixLatency,
    PartialSynchronyLatency,
)
from repro.sim.regions import EU_REGIONS, WORLD_REGIONS
from repro.core.rng import RngStream


def test_constant_latency():
    model = ConstantLatency(7.0)
    assert model.delay(0, 1, 100, now=0.0) == 7.0


def test_constant_latency_with_bandwidth():
    model = ConstantLatency(1.0, bandwidth=50.0)
    assert model.delay(0, 1, 100, 0.0) == pytest.approx(3.0)


def test_constant_negative_rejected():
    with pytest.raises(ConfigError):
        ConstantLatency(-1.0)


def make_matrix(jitter=0.0, bandwidth=0.0):
    placement = EU_REGIONS.assign_round_robin(8)
    return MatrixLatency(
        EU_REGIONS, placement, RngStream(1, "lat"), bandwidth=bandwidth, jitter=jitter
    )


def test_matrix_latency_uses_region_matrix():
    model = make_matrix()
    # Nodes 0 and 4 are both in region 0 (round robin over 4 regions).
    assert model.delay(0, 4, 0, 0.0) == EU_REGIONS.latency(0, 0)
    # Node 0 in region 0, node 1 in region 1.
    assert model.delay(0, 1, 0, 0.0) == EU_REGIONS.latency(0, 1)


def test_matrix_latency_jitter_bounded():
    model = make_matrix(jitter=0.05)
    base = EU_REGIONS.latency(0, 1)
    for _ in range(100):
        delay = model.delay(0, 1, 0, 0.0)
        assert base * 0.95 <= delay <= base * 1.05


@pytest.mark.parametrize("jitter", [0.0, 0.05, 0.5, 3.0])
def test_matrix_latency_draws_what_rng_jitter_draws(jitter):
    """The inlined draw is ``RngStream.jitter`` bit for bit, the floor at 0
    included (a jitter above 1 reaches it)."""
    model = make_matrix(jitter=jitter, bandwidth=1000.0)
    reference = RngStream(1, "lat")
    for step in range(400):
        src, dst, size = step % 8, (step * 3 + 1) % 8, step * 7
        expected = reference.jitter(model.base_ms[src][dst], jitter) + size / 1000.0
        assert model.delay(src, dst, size, 0.0) == expected


def test_matrix_latency_bandwidth_term():
    model = make_matrix(bandwidth=1000.0)
    base = EU_REGIONS.latency(0, 1)
    assert model.delay(0, 1, 5000, 0.0) == pytest.approx(base + 5.0)


def test_matrix_invalid_placement_rejected():
    with pytest.raises(ConfigError):
        MatrixLatency(EU_REGIONS, [0, 99], RngStream(1, "x"))


def make_ps(gst=100.0, delta=20.0, extra=50.0):
    return PartialSynchronyLatency(
        ConstantLatency(5.0), RngStream(2, "ps"), gst=gst, delta_ms=delta,
        max_extra_ms=extra,
    )


def test_partial_synchrony_after_gst_bounded_by_delta():
    model = make_ps(gst=100.0, delta=20.0)
    for now in (100.0, 200.0, 1e6):
        assert model.delay(0, 1, 0, now) <= 20.0


def test_partial_synchrony_before_gst_can_exceed_base():
    model = make_ps(gst=1000.0, delta=20.0, extra=500.0)
    delays = [model.delay(0, 1, 0, now=0.0) for _ in range(50)]
    assert max(delays) > 5.0  # chaos actually happens


def test_partial_synchrony_pre_gst_messages_arrive_by_gst_plus_delta():
    model = make_ps(gst=100.0, delta=20.0, extra=10_000.0)
    for now in (0.0, 50.0, 99.0):
        delay = model.delay(0, 1, 0, now)
        assert now + delay <= 100.0 + 20.0


def test_partial_synchrony_invalid_delta():
    with pytest.raises(ConfigError):
        make_ps(delta=0.0)


def test_world_matrix_has_long_haul_links():
    # Sydney <-> Frankfurt must be much slower than intra-EU.
    syd = WORLD_REGIONS.region_names.index("ap-southeast-2")
    fra = WORLD_REGIONS.region_names.index("eu-central-1")
    irl = WORLD_REGIONS.region_names.index("eu-west-1")
    ldn = WORLD_REGIONS.region_names.index("eu-west-2")
    assert WORLD_REGIONS.latency(syd, fra) > 10 * WORLD_REGIONS.latency(irl, ldn)
