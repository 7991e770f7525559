"""Latency models for the simulated network.

A latency model answers one question: how long does a message of ``size``
bytes sent at virtual time ``now`` from node ``src`` to node ``dst`` take to
arrive?  Three models are provided:

* :class:`ConstantLatency` - fixed propagation delay (unit tests).
* :class:`MatrixLatency` - per-region propagation from a
  :class:`~repro.sim.regions.RegionMap` plus a bandwidth term and jitter;
  this is the model used by all paper-reproduction benchmarks.
* :class:`PartialSynchronyLatency` - wraps another model and adds
  adversarially random extra delay before GST, implementing the
  partial-synchrony assumption of Section 5 (after GST every message
  arrives within a known bound delta).
"""

from __future__ import annotations

from repro.core.rng import RngStream
from repro.errors import ConfigError
from repro.sim.regions import RegionMap

#: Default WAN bandwidth per link in bytes/ms (~1 Gbit/s = 125 000 B/ms).
DEFAULT_BANDWIDTH_BYTES_PER_MS = 125_000.0


class LatencyModel:
    """Interface: map (src, dst, size, now) to a one-way delay in ms."""

    def delay(self, src: int, dst: int, size_bytes: int, now: float) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``base_ms`` (plus optional bandwidth)."""

    def __init__(self, base_ms: float, bandwidth: float | None = None) -> None:
        if base_ms < 0:
            raise ConfigError("latency must be non-negative")
        self.base_ms = base_ms
        self.bandwidth = bandwidth

    def delay(self, src: int, dst: int, size_bytes: int, now: float) -> float:
        transfer = size_bytes / self.bandwidth if self.bandwidth else 0.0
        return self.base_ms + transfer


class MatrixLatency(LatencyModel):
    """Region-matrix propagation + serialization time + multiplicative jitter.

    ``placement[i]`` gives the region index of node ``i``.  The delay of a
    message is ``matrix[region(src)][region(dst)] * (1 +/- jitter) +
    size/bandwidth``.  Jitter draws come from a dedicated RNG stream so the
    model is deterministic per seed.  The region lookups are done once, at
    construction: :attr:`base_ms` holds every pid pair's base latency.
    """

    def __init__(
        self,
        regions: RegionMap,
        placement: list[int],
        rng: RngStream,
        bandwidth: float = DEFAULT_BANDWIDTH_BYTES_PER_MS,
        jitter: float = 0.05,
    ) -> None:
        if any(r < 0 or r >= regions.num_regions for r in placement):
            raise ConfigError("placement refers to an unknown region")
        self.regions = regions
        self.placement = list(placement)
        self.rng = rng
        self.bandwidth = bandwidth
        self.jitter = jitter
        # One row per region, shared by the pids placed there, so the table
        # grows with regions x pids, not pids squared.
        rows = [
            [regions.latency(a, b) for b in self.placement]
            for a in range(regions.num_regions)
        ]
        #: ``base_ms[src][dst]``: the propagation delay before jitter.
        self.base_ms = [rows[region] for region in self.placement]

    def delay(self, src: int, dst: int, size_bytes: int, now: float) -> float:
        # ``RngStream.jitter`` inlined: the same single ``random()`` draw and
        # CPython's ``uniform(a, b) = a + (b - a) * random()`` arithmetic.
        propagation = self.base_ms[src][dst]
        jitter = self.jitter
        if not jitter <= 0:  # what ``RngStream.jitter`` tests
            factor = 1.0 + (-jitter + (jitter + jitter) * self.rng.random())
            propagation *= factor
            if not propagation > 0.0:
                propagation = 0.0
        transfer = size_bytes / self.bandwidth if self.bandwidth else 0.0
        return propagation + transfer


class PartialSynchronyLatency(LatencyModel):
    """Partial synchrony: arbitrary (bounded) chaos before GST, delta after.

    Before ``gst`` every message suffers an extra uniform delay in
    ``[0, max_extra_ms]``; after GST delays are clamped to ``delta_ms`` so
    the known bound of the model holds.  Messages are never lost (reliable
    links, Section 5).
    """

    def __init__(
        self,
        inner: LatencyModel,
        rng: RngStream,
        gst: float,
        delta_ms: float,
        max_extra_ms: float = 500.0,
    ) -> None:
        if delta_ms <= 0:
            raise ConfigError("delta must be positive")
        self.inner = inner
        self.rng = rng
        self.gst = gst
        self.delta_ms = delta_ms
        self.max_extra_ms = max_extra_ms

    def delay(self, src: int, dst: int, size_bytes: int, now: float) -> float:
        base = self.inner.delay(src, dst, size_bytes, now)
        if now < self.gst:
            extra = self.rng.uniform(0.0, self.max_extra_ms)
            # A pre-GST message must still arrive within delta after GST.
            return min(base + extra, (self.gst - now) + self.delta_ms)
        return min(base, self.delta_ms)
