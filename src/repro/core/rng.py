"""Seeded, named random streams.

Every source of randomness in a simulation draws from an :class:`RngStream`
derived from the experiment's master seed and a stable name (for example
``"latency:3->7"``).  Deriving streams by name rather than sharing a single
``random.Random`` means that adding a new consumer of randomness does not
perturb the draws seen by existing consumers, so results stay comparable
across library versions.
"""

from __future__ import annotations

import hashlib
import random
from typing import MutableSequence, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named pseudo-random stream (thin wrapper over ``random.Random``)."""

    def __init__(self, master_seed: int, name: str) -> None:
        self.name = name
        self._rng = random.Random(derive_seed(master_seed, name))  # noqa: S311 - deterministic simulation stream, not cryptography
        #: Uniform float in [0, 1): the generator's own method, so a hot
        #: caller (the latency model's jitter) pays no wrapper call.
        self.random = self._rng.random

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi]."""
        return self._rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate (1/mean)."""
        return self._rng.expovariate(rate)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return self._rng.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._rng.choice(seq)

    def shuffle(self, seq: MutableSequence[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(seq)

    def jitter(self, base: float, fraction: float) -> float:
        """``base`` perturbed by up to +/- ``fraction`` of itself, floored at 0."""
        if fraction <= 0:
            return base
        return max(0.0, base * (1.0 + self._rng.uniform(-fraction, fraction)))


class RngFactory:
    """Creates named :class:`RngStream` objects from one master seed."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name`` (always freshly seeded by name)."""
        return RngStream(self.master_seed, name)
