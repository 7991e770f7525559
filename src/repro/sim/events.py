"""Deterministic discrete-event loop with a virtual clock.

The simulator keeps a heap of ``(time, seq, fn, args, handle)`` entries,
one shape for every event.  ``seq`` is a per-simulator counter, so two
events scheduled for the same instant fire in the order they were
scheduled, and since no two entries share a ``seq`` a comparison is
settled by the first two elements - in C, on a float and an int - and
never reaches the callback or the handle, which are not orderable.  That
tie-break rule is what makes every simulation run bit-for-bit
reproducible from its seed; nothing in the library reads the wall clock.

Two calls push an entry, and they differ only in the handle:

* :meth:`Simulator.schedule` returns a cancellable :class:`Event` and
  stores it as the entry's handle.  Timers and fault-plan crashes and
  recoveries are scheduled this way, because something may cancel them.
* :meth:`Simulator.post` stores ``None``: no object is built and nothing
  is returned.  Message deliveries, deliveries deferred while a CPU is
  busy and sends deferred behind charged CPU time are posted - nothing
  ever cancels them, and they are the bulk of every run.

Both draw ``seq`` from the same counter, so which call scheduled an event
never changes when it fires.

:meth:`Simulator.run` is the one place events fire, in one loop.  It pops
each entry once and makes two tests - the time bound (infinite when
``until`` is unset) and the handle (``None`` for a posted call) - before
the call; an entry past ``until`` goes back on the heap unchanged.
:attr:`Simulator.events_processed` counts each event before its callback
runs, so a callback reads the exact count.

Times are floats in *milliseconds* of virtual time.  Milliseconds are the
natural unit for wide-area consensus (inter-region RTTs are tens of ms,
crypto operations are fractions of a ms).

Cancelled events are discarded lazily when they reach the top of the
heap, but the simulator tracks how many cancelled entries are pending and
*compacts* the heap once they are the majority, so chaos runs that cancel
many timeouts keep the heap (and every push/pop) small.

For profiling, an external wall clock can be attached with
:meth:`Simulator.attach_wall_clock`; the simulator itself never imports a
time source (determinism rule DET001) and the measured wall time feeds
only the reporting counters, never the event order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

#: Compact the heap when more than half its entries are cancelled and it
#: is at least this large (tiny heaps are not worth rebuilding).
_COMPACT_MIN_HEAP = 64

#: ``until`` of a run with no time bound: no event time exceeds it.
_NEVER = float("inf")


@dataclass(slots=True, eq=False)
class Event:
    """The handle of a call ``fn(*args)`` made with :meth:`Simulator.schedule`.

    Deliberately not orderable: the heap orders ``(time, seq, fn, args,
    event)`` entries and ``seq`` is unique, so a comparison never gets as
    far as the event (see the module docstring).
    """

    time: float
    seq: int
    fn: Callable[..., None]
    args: tuple[Any, ...] = ()
    cancelled: bool = False
    # Back-reference used for cancelled-event accounting; detached (set to
    # None) once the event leaves the heap so late cancels cannot skew the
    # pending counter.
    sim: "Simulator | None" = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it fires."""
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._note_cancelled()


class Simulator:
    """Event heap plus virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, print, "five virtual ms later")
        sim.run()
    """

    def __init__(self) -> None:
        # (time, seq, fn, args, handle); the handle is None for a posted call.
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...], Event | None]] = []
        self._seq = itertools.count()
        #: Current virtual time in milliseconds.  A plain attribute rather
        #: than a property because every send, delivery, charge and handler
        #: reads it (~30 reads per committed transaction); only
        #: :meth:`run` writes it.
        self.now = 0.0
        self._running = False
        self._events_processed = 0
        self._cancelled_pending = 0
        # Optional profiling clock (e.g. time.perf_counter), injected from
        # outside the sim package; see module docstring.
        self._wall_clock: Callable[[], float] | None = None
        self._wall_seconds = 0.0

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far (cancelled ones excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled_pending

    # -- profiling counters -------------------------------------------------

    def attach_wall_clock(self, clock: Callable[[], float]) -> None:
        """Install a wall-clock source (seconds) used only for reporting.

        The clock is read around :meth:`run` to maintain
        :attr:`wall_seconds`; it never influences event order, so
        determinism is preserved.
        """
        self._wall_clock = clock

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds spent inside :meth:`run` (0 if no clock)."""
        return self._wall_seconds

    @property
    def events_per_wall_second(self) -> float:
        """Fired events per wall-clock second (0 without an attached clock)."""
        if self._wall_seconds <= 0.0:
            return 0.0
        return self._events_processed / self._wall_seconds

    @property
    def wall_seconds_per_sim_second(self) -> float:
        """Wall-clock seconds needed per simulated second (0 without clock)."""
        if self._wall_seconds <= 0.0 or self.now <= 0.0:
            return 0.0
        return self._wall_seconds / (self.now / 1000.0)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now; returns the event.

        ``delay`` must be non-negative (NaN is refused too): simulated
        causality only moves forward.  A zero delay is allowed and fires
        after all events already scheduled for the current instant.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, seq, fn, args, False, self)
        heappush(self._heap, (time, seq, fn, args, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` without a handle, for a call nothing will cancel.

        Same delay rule and the same ``seq`` counter, so the call fires
        exactly when a scheduled one would; it just builds no
        :class:`Event`.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heappush(self._heap, (self.now + delay, next(self._seq), fn, args, None))

    # -- cancellation accounting -------------------------------------------

    def _note_cancelled(self) -> None:
        """One pending event was cancelled; compact if the heap is mostly dead."""
        self._cancelled_pending += 1
        heap = self._heap
        if (
            len(heap) >= _COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (slice assignment) so that a compaction triggered from a
        callback does not invalidate the heap list the run loop iterates.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[4] is None or not entry[4].cancelled]
        heapify(heap)
        self._cancelled_pending = 0

    # -- running ------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Process events until the heap drains or the clock passes ``until``.

        ``until`` stops the clock at that virtual time (events at exactly
        ``until`` still run).  One pop, one bound test and one handle test
        per event: an entry past ``until`` is pushed back unchanged, and
        since entries are ordered by their unique ``(time, seq)`` keys
        alone, the heap pops exactly as if it had never left.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        clock = self._wall_clock
        started = clock() if clock is not None else 0.0
        heap = self._heap
        limit = _NEVER if until is None else until
        try:
            while heap:
                entry = heappop(heap)
                time, _, fn, args, event = entry
                if time > limit:
                    heappush(heap, entry)
                    self.now = limit
                    return
                if event is not None:
                    event.sim = None
                    if event.cancelled:
                        self._cancelled_pending -= 1
                        continue
                self.now = time
                self._events_processed += 1
                fn(*args)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            if clock is not None:
                self._wall_seconds += clock() - started
