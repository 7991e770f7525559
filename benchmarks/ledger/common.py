"""What every workload run returns, plus the host probes around it."""

from __future__ import annotations

import os
import resource
import statistics
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

#: Iterations of one calibration spin (~3 ms on the reference box); the
#: first spins also warm the core up, the fastest one is reported.
_CALIB_OPS = 50_000
_CALIB_SPINS = 40
#: A run during which the host's speed moved by more than this is flagged.
HOST_DRIFT_TOLERANCE = 0.15


@dataclass
class Outcome:
    """One run of one workload, traced or not."""

    workload: str
    seed: int
    traced: bool
    correct: bool
    attempted: int
    failed: int
    #: End-to-end metrics (untraced run) or per-layer metrics (traced run).
    metrics: dict[str, float]
    #: Everything else worth keeping: sample counts, digests, per-protocol
    #: numbers, validity flags.  ``exact`` entries must repeat bit for bit.
    detail: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def calibrate() -> float:
    """Operations per second of a fixed pure-Python spin loop (fastest spin)."""
    best = float("inf")
    for _ in range(_CALIB_SPINS):
        started = time.perf_counter()
        acc = 0
        for i in range(_CALIB_OPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    return _CALIB_OPS / best


#: Wall-clock results are scaled to a host on which one ``probe()`` takes
#: this long (about what the reference box needs when left alone).
PROBE_REF_S = 150e-6


def probe() -> float:
    """Seconds one fixed, allocation-heavy reference loop took just now.

    The shared host slows the benchmark in bursts whose density changes
    from minute to minute; this loop is timed right next to the measured
    work and the work's wall time is scaled by ``PROBE_REF_S / probe``.
    It churns dicts, lists and tuples because that is what the program
    does: an arithmetic spin loop barely felt the interference that
    slowed the program by a third, this loop tracks it.
    """
    started = time.perf_counter()
    table: dict[int, tuple[int, list[int], dict[str, int]]] = {}
    for i in range(150):
        table[i % 64] = (i, [i, i + 1], {"a": i})
        sorted(table)
    return time.perf_counter() - started


def host_drifted(probes: Sequence[float]) -> bool:
    """Did the host's speed move between the first and last third of a run?"""
    third = len(probes) // 3
    if not third:
        return False
    early, late = statistics.median(probes[:third]), statistics.median(probes[-third:])
    return abs(late - early) / early > HOST_DRIFT_TOLERANCE


def host_normalised(wall: float, probe_s: float) -> float:
    """``wall`` as it would have read on the reference host."""
    return wall * PROBE_REF_S / probe_s


def admissions_and_rejections(replicas: Sequence[Any]) -> tuple[int, int]:
    """(admission attempts, rejections) summed over the replicas' mempools."""
    pools = [replica.mempool.stats() for replica in replicas]
    rejections = sum(
        int(pool["rejected_rate_limited"]) + int(pool["rejected_pool_full"])
        + int(pool["rejected_duplicate"]) for pool in pools
    )
    return sum(int(pool["admitted"]) for pool in pools) + rejections, rejections


def peak_rss_mb() -> float:
    """High-water resident set of this process, MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpus() -> int:
    return len(os.sched_getaffinity(0))
