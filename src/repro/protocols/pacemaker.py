"""View synchronization: timers, backoff, rotating leader election.

HotStuff's liveness mechanism (Section 3): nodes start a timer per view,
double the timeout when a view fails, and shrink it again when views
succeed, so that after GST all correct nodes eventually share a view with
a correct leader for long enough to decide.  Leader election is the
deterministic round-robin the paper assumes ("each view has a unique
leader, chosen deterministically and known to all nodes", Section 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.core.codec import F64, I64
from repro.protocols.state import reset_volatile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rng import RngStream
    from repro.runtime.machine import Machine, MachineTimer


def round_robin_leader(view: int, num_replicas: int) -> int:
    """The unique, deterministic leader of ``view``."""
    return view % num_replicas


class Pacemaker:
    """Per-replica view timer with exponential backoff."""

    VOLATILE = {"_timer": None}  # a crash disarms it; the backoff survives
    DURABLE: ClassVar[dict[str, Any]] = {"current_timeout_ms": F64, "_view": I64}
    WIRING = ("process", "base_timeout_ms", "backoff", "on_timeout", "linear_decrease_ms",
              "max_timeout_ms", "jitter_fraction", "rng", "timeouts_fired")
    _timer: "MachineTimer | None"

    def __init__(
        self,
        process: "Machine",
        base_timeout_ms: float,
        backoff: float = 2.0,
        on_timeout: Callable[[int], None] | None = None,
        linear_decrease_ms: float | None = None,
        max_timeout_ms: float | None = None,
        jitter_fraction: float = 0.0,
        rng: "RngStream | None" = None,
    ) -> None:
        self.process = process
        self.base_timeout_ms = base_timeout_ms
        self.backoff = backoff
        self.on_timeout = on_timeout
        # Optional seeded timeout jitter (default off): each armed timer
        # is perturbed by up to +/- jitter_fraction of itself, so
        # simulated replicas do not fire view-changes in lock-step - the
        # desynchronization real clocks provide for free.
        self.jitter_fraction = jitter_fraction
        self.rng = rng
        # When views succeed, the timeout shrinks linearly back toward the
        # base (the exponential-backoff-with-linear-decrease scheme of
        # Section 3).  The cap keeps a permanently faulty leader in a
        # rotating schedule from inflating the timeout unboundedly.
        self.linear_decrease_ms = (
            linear_decrease_ms if linear_decrease_ms is not None else base_timeout_ms / 2
        )
        self.max_timeout_ms = (
            max_timeout_ms if max_timeout_ms is not None else base_timeout_ms * 4
        )
        self.current_timeout_ms = base_timeout_ms
        self.timeouts_fired = 0
        self._view = -1
        reset_volatile(self)

    def start_view(self, view: int) -> None:
        """Arm the timer for ``view``, cancelling any previous timer."""
        self.cancel()
        self._view = view
        timeout = self.current_timeout_ms
        if self.rng is not None and self.jitter_fraction > 0.0:
            timeout = self.rng.jitter(timeout, self.jitter_fraction)
        self._timer = self.process.set_timer(timeout, self._fire)

    def view_succeeded(self) -> None:
        """Cancel the timer and linearly decrease the timeout."""
        self.cancel()
        self.current_timeout_ms = max(
            self.base_timeout_ms, self.current_timeout_ms - self.linear_decrease_ms
        )

    def cancel(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _fire(self) -> None:
        self._timer = None
        self.timeouts_fired += 1
        self.current_timeout_ms = min(
            self.current_timeout_ms * self.backoff, self.max_timeout_ms
        )
        if self.on_timeout is not None:
            self.on_timeout(self._view)
