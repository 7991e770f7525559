"""High/low watermark hysteresis over the pool's fill fraction.

Backpressure engages when fill reaches the high watermark and only
releases once it drains back to the low one.  The gap is the point:
a pool oscillating around a single threshold would flap between
accepting and refusing on every admission, so clients would see a
verdict stream that depends on message interleaving rather than load.
"""

from __future__ import annotations


class Watermark:
    """Two-threshold backpressure latch on a fill fraction in [0, 1]."""

    __slots__ = ("high", "low", "backpressured", "engagements")

    def __init__(self, high: float, low: float) -> None:
        # With the gap, observing one fill twice leaves the latch as it was,
        # so a pool can read it between changes without updating it.
        if not low < high:
            raise ValueError(f"the low watermark {low} must sit below the high one {high}")
        self.high = high
        self.low = low
        self.backpressured = False
        #: Times backpressure engaged (monotone; for stats snapshots).
        self.engagements = 0

    def update(self, fill: float) -> bool:
        """Observe the current fill fraction; return the latched state."""
        if self.backpressured:
            if fill <= self.low:
                self.backpressured = False
        elif fill >= self.high:
            self.backpressured = True
            self.engagements += 1
        return self.backpressured
