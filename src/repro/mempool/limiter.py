"""Per-sender token-bucket rate limiting for transaction admission.

Pure and clock-free: callers pass ``now`` (simulated or wall-clock
milliseconds), so the limiter behaves identically under the simulator
and the asyncio runtime.  Refill is continuous - tokens accrue at
exactly ``rate_per_ms`` between observations - so the admitted rate
converges on the configured rate regardless of how bursty the arrivals
are, while ``burst`` bounds how far a quiet sender can get ahead.
"""

from __future__ import annotations

from repro.memo import remember

#: Distinct senders tracked before the oldest half of the bucket map is
#: evicted (an evicted sender restarts with a full burst; bounded memory
#: beats perfect fairness against a sender-id-churning adversary).
MAX_TRACKED_SENDERS = 65_536

#: Tolerance for float refill accumulation: ``n`` refills of ``rate *
#: dt`` must never strand a sender one ulp short of a whole token.
_EPSILON = 1e-9


class TokenBucket:
    """One sender's budget: capacity ``burst``, refilled at ``rate_per_ms``."""

    __slots__ = ("rate_per_ms", "burst", "tokens", "updated_at")

    def __init__(self, rate_per_ms: float, burst: float, now: float = 0.0) -> None:
        self.rate_per_ms = rate_per_ms
        self.burst = burst
        self.tokens = burst
        self.updated_at = now

    def refill(self, now: float) -> None:
        """Accrue tokens for the time elapsed since the last observation."""
        if now > self.updated_at:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated_at) * self.rate_per_ms
            )
            self.updated_at = now

    def try_acquire(self, now: float, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if the refilled balance covers them."""
        self.refill(now)
        if self.tokens + _EPSILON >= cost:
            self.tokens -= cost
            return True
        return False


class SenderRateLimiter:
    """A :class:`TokenBucket` per sender id, with bounded memory.

    A ``rate_per_ms`` of zero disables limiting entirely (every sender
    is always allowed), which is the default deployment configuration.
    """

    def __init__(
        self,
        rate_per_ms: float,
        burst: float,
        max_senders: int = MAX_TRACKED_SENDERS,
    ) -> None:
        self.rate_per_ms = rate_per_ms
        self.burst = burst
        self.max_senders = max_senders
        self._buckets: dict[int, TokenBucket] = {}

    @property
    def enabled(self) -> bool:
        return self.rate_per_ms > 0.0

    def allow(self, sender: int, now: float) -> bool:
        """Charge one token against ``sender``'s bucket."""
        if not self.enabled:
            return True
        bucket = self._buckets.get(sender)
        if bucket is None:
            bucket = remember(
                self._buckets,
                sender,
                TokenBucket(self.rate_per_ms, self.burst, now),
                self.max_senders,
            )
        return bucket.try_acquire(now)

    def tracked_senders(self) -> int:
        return len(self._buckets)
