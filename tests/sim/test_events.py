"""Tests for the discrete-event simulator core."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import Event, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(9.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(3.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]
    assert sim.now == 7.5


def test_nested_scheduling_from_callback():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule(1.0, lambda: order.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 2.0


def test_zero_delay_event_runs_after_already_scheduled_same_instant():
    sim = Simulator()
    order = []
    sim.schedule(0.0, lambda: order.append("first"))
    sim.schedule(0.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("early"))
    sim.schedule(50.0, lambda: fired.append("late"))
    sim.run(until=10.0)
    assert fired == ["early"]
    assert sim.now == 10.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_includes_boundary_event():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    sim.run(until=10.0)
    assert fired == [1]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_simulator_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_bounded_run_skips_cancelled_and_updates_counter():
    """A run bounded by ``until`` drops a cancelled entry it reaches."""
    sim = Simulator()
    fired = []
    cancelled = sim.schedule(1.0, lambda: fired.append("dead"))
    sim.schedule(2.0, lambda: fired.append("live"))
    cancelled.cancel()
    assert sim.cancelled_pending == 1
    sim.run(until=2.0)
    assert fired == ["live"]
    assert sim.cancelled_pending == 0
    assert sim.events_processed == 1


def test_cancelled_pending_counter():
    sim = Simulator()
    events = [sim.schedule(1.0, lambda: None) for _ in range(10)]
    for event in events[:4]:
        event.cancel()
    assert sim.cancelled_pending == 4
    events[0].cancel()  # double-cancel must not double-count
    assert sim.cancelled_pending == 4
    sim.run()
    assert sim.cancelled_pending == 0
    assert sim.events_processed == 6


def test_heap_compacts_when_mostly_cancelled():
    """Cancelling the majority of a large heap shrinks it immediately."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    for event in events[:51]:
        event.cancel()
    assert sim.pending == 49
    assert sim.cancelled_pending == 0
    sim.run()
    assert sim.events_processed == 49


def test_small_heaps_skip_compaction():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for event in events[:9]:
        event.cancel()
    # Below the compaction floor the cancelled entries stay until popped.
    assert sim.pending == 10
    assert sim.cancelled_pending == 9
    sim.run()
    assert sim.events_processed == 1
    assert sim.cancelled_pending == 0


def test_cancel_after_pop_does_not_skew_counter():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    event.cancel()  # already fired; must not touch the pending counter
    assert sim.cancelled_pending == 0


def test_compaction_preserves_event_order():
    sim = Simulator()
    order = []
    keep = []
    for i in range(200):
        event = sim.schedule(float(i + 1), lambda t=float(i + 1): order.append(t))
        if i % 2:
            keep.append(event)
        else:
            event.cancel()
    sim.run()
    assert order == sorted(order)
    assert sim.events_processed == 100


def test_wall_clock_counters():
    sim = Simulator()
    ticks = iter([0.0, 2.0])
    sim.attach_wall_clock(lambda: next(ticks))
    for i in range(4):
        sim.schedule(250.0 * (i + 1), lambda: None)
    sim.run()
    assert sim.wall_seconds == 2.0
    assert sim.events_per_wall_second == pytest.approx(2.0)
    # 1000 ms of virtual time took 2 wall seconds.
    assert sim.wall_seconds_per_sim_second == pytest.approx(2.0)


def test_counters_zero_without_wall_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.wall_seconds == 0.0
    assert sim.events_per_wall_second == 0.0
    assert sim.wall_seconds_per_sim_second == 0.0


# -- guards ---------------------------------------------------------------------


def test_nan_delay_rejected():
    """NaN compares false with everything, so ``delay < 0`` let it through
    and the heap then fired out of time order."""
    sim = Simulator()
    fired = []
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), fired.append, "nan")
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), fired.append, "nan")
    for delay in (5.0, 1.0, 3.0, 0.5):
        sim.schedule(delay, fired.append, delay)
    sim.run()
    assert fired == [0.5, 1.0, 3.0, 5.0]
    assert sim.pending == 0


# -- the heap never compares events ------------------------------------------------


class _Unorderable:
    """Bound methods of this compare by identity only; ``<`` raises."""

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def fire(self):
        self.log.append(self.tag)


def test_same_instant_events_with_unorderable_callbacks_fire_in_schedule_order():
    sim = Simulator()
    log = []
    for tag in range(6):
        if tag % 2:
            sim.schedule(2.0, functools.partial(log.append, tag))
        else:
            sim.schedule(2.0, _Unorderable(log, tag).fire)
    sim.run()
    assert log == list(range(6))


def test_events_are_not_orderable():
    sim = Simulator()
    first, second = sim.schedule(1.0, print), sim.schedule(1.0, print)
    with pytest.raises(TypeError):
        first < second  # noqa: B015 - the comparison itself must raise
    with pytest.raises(TypeError):
        Event(1.0, 0, print) < Event(1.0, 1, print)  # noqa: B015


def test_schedule_passes_arguments_to_the_callback():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda *args: seen.append(args), 1, "two", None)
    sim.schedule_at(2.0, seen.append, "at")
    sim.run()
    assert seen == [(1, "two", None), "at"]


# -- posted events: the same heap, no handle ---------------------------------------


def test_posted_and_scheduled_events_share_one_order():
    sim = Simulator()
    log = []
    sim.post(1.0, log.append, "p0")
    sim.schedule(1.0, log.append, "s1")
    sim.post(0.5, log.append, "p2")
    sim.schedule_at(1.0, log.append, "s3")
    assert sim.post(1.0, log.append, "p4") is None
    sim.run()
    assert log == ["p2", "p0", "s1", "s3", "p4"]
    assert sim.events_processed == 5


def test_post_refuses_the_past_like_schedule():
    sim = Simulator()
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimulationError):
            sim.post(delay, print)
    assert sim.pending == 0


def test_posted_events_under_a_time_bound_and_cancellation():
    sim = Simulator()
    fired = []
    for tag, delay in (("a", 1.0), ("b", 1.0), ("c", 2.0)):
        sim.post(delay, fired.append, tag)
    sim.schedule(2.0, fired.append, "dead").cancel()
    assert (sim.pending, sim.cancelled_pending) == (4, 1)
    sim.run(until=1.0)
    assert fired == ["a", "b"]
    assert (sim.pending, sim.cancelled_pending) == (2, 1)
    sim.run()  # fires "c", then drops the cancelled entry
    assert fired == ["a", "b", "c"]
    assert (sim.pending, sim.cancelled_pending, sim.events_processed) == (0, 0, 3)


# -- model-based: the scheduler against a sorted list -------------------------------
#
# A program is a list of top-level operations; every scheduled event
# carries a *behaviour* it performs when it fires (schedule or post
# children, cancel other events by handle index).  Posted events get
# negative idents and no handle, so a cancel can never reach them.  ``_RealWorld`` runs the program
# on a Simulator, ``_ModelWorld`` on a plain list ordered by (time, seq)
# with the documented lazy-discard and compaction rules; both log what
# they observe around every callback and must agree after every operation.

#: Few distinct delays, zero among them, so ties are the common case.
_DELAYS = (0.0, 0.5, 1.0, 2.5)


def _perform(world, behaviour):
    kind = behaviour[0]
    if kind == "spawn":
        for delay, child in behaviour[1]:
            world.schedule(delay, child)
    elif kind == "post":
        for delay, child in behaviour[1]:
            world.post(delay, child)
    elif kind == "cancel":
        for index in behaviour[1]:
            world.cancel(index)
    elif kind == "cancel_span":
        for index in range(behaviour[1], behaviour[1] + behaviour[2]):
            world.cancel(index)


class _RealWorld:
    def __init__(self):
        self.sim = Simulator()
        self.handles = []
        self.posted = 0
        self.log = []

    def observe(self):
        sim = self.sim
        return (sim.now, sim.events_processed, sim.pending, sim.cancelled_pending)

    def schedule(self, delay, behaviour):
        ident = len(self.handles)
        self.handles.append(self.sim.schedule(delay, self._fire, ident, behaviour))

    def post(self, delay, behaviour):
        self.posted += 1
        self.sim.post(delay, self._fire, -self.posted, behaviour)

    def cancel(self, index):
        if self.handles:
            self.handles[index % len(self.handles)].cancel()

    def _fire(self, ident, behaviour):
        self.log.append(("fire", ident, *self.observe()))
        _perform(self, behaviour)
        self.log.append(("done", ident, *self.observe()))

    def run(self, until=None):
        self.sim.run(until=until)


class _Entry:
    def __init__(self, time, seq, ident, behaviour):
        self.key = (time, seq)
        self.ident = ident
        self.behaviour = behaviour
        self.cancelled = False
        self.on_heap = True


class _ModelWorld:
    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.cancelled_pending = 0
        self.compactions = 0
        self.entries = []  # what the heap holds, cancelled entries included
        self.handles = []
        self.seq = 0
        self.posted = 0
        self.log = []

    def observe(self):
        return (self.now, self.events_processed, len(self.entries), self.cancelled_pending)

    def schedule(self, delay, behaviour):
        entry = _Entry(self.now + delay, self.seq, len(self.handles), behaviour)
        self.seq += 1
        self.handles.append(entry)
        self.entries.append(entry)

    def post(self, delay, behaviour):
        self.posted += 1
        self.entries.append(_Entry(self.now + delay, self.seq, -self.posted, behaviour))
        self.seq += 1

    def cancel(self, index):
        if not self.handles:
            return
        entry = self.handles[index % len(self.handles)]
        if entry.cancelled:
            return
        entry.cancelled = True
        if not entry.on_heap:
            return
        self.cancelled_pending += 1
        if len(self.entries) >= 64 and self.cancelled_pending * 2 > len(self.entries):
            for dead in self.entries:
                dead.on_heap = not dead.cancelled
            self.entries = [live for live in self.entries if live.on_heap]
            self.cancelled_pending = 0
            self.compactions += 1

    def _next(self, until):
        """Pop the next live entry; ``None`` when the heap drains or ``until`` is hit."""
        while self.entries:
            entry = min(self.entries, key=lambda e: e.key)
            if until is not None and entry.key[0] > until:
                return None
            if entry.cancelled:
                self.entries.remove(entry)
                entry.on_heap = False
                self.cancelled_pending -= 1
                continue
            self.entries.remove(entry)
            entry.on_heap = False
            return entry
        return None

    def _fire(self, entry):
        self.now = entry.key[0]
        self.events_processed += 1
        self.log.append(("fire", entry.ident, *self.observe()))
        _perform(self, entry.behaviour)
        self.log.append(("done", entry.ident, *self.observe()))

    def run(self, until=None):
        while (entry := self._next(until)) is not None:
            self._fire(entry)
        if until is not None and until > self.now:
            self.now = until


def _run_program(program):
    """Run ``program`` on both worlds, comparing after every operation."""
    real, model = _RealWorld(), _ModelWorld()
    for op in program:
        kind = op[0]
        for world in (real, model):
            if kind == "schedule":
                world.schedule(op[1], op[2])
            elif kind == "post":
                world.post(op[1], op[2])
            elif kind == "bulk":
                for _ in range(op[1]):
                    world.schedule(op[2], ("none",))
            elif kind == "bulk_post":
                for _ in range(op[1]):
                    world.post(op[2], ("none",))
            elif kind == "run_until":
                world.run(until=world.observe()[0] + op[1])
            elif kind == "run":
                world.run()
            else:
                _perform(world, op)
        assert real.log == model.log, op
        assert real.observe() == model.observe(), op
        assert [h.cancelled for h in real.handles] == [h.cancelled for h in model.handles]
    return real, model


_delays = st.sampled_from(_DELAYS)
_indices = st.integers(min_value=0, max_value=150)
_cancels = st.one_of(
    st.tuples(st.just("cancel"), st.lists(_indices, max_size=4)),
    st.tuples(st.just("cancel_span"), _indices, st.integers(min_value=0, max_value=90)),
)
_behaviours = st.recursive(
    st.one_of(st.just(("none",)), _cancels),
    lambda children: st.tuples(
        st.sampled_from(("spawn", "post")), st.lists(st.tuples(_delays, children), max_size=3)
    ),
    max_leaves=6,
)
_operations = st.one_of(
    st.tuples(st.sampled_from(("schedule", "post")), _delays, _behaviours),
    st.tuples(
        st.sampled_from(("bulk", "bulk_post")), st.integers(min_value=0, max_value=90), _delays
    ),
    _cancels,
    st.tuples(st.just("run_until"), st.sampled_from((*_DELAYS, 5.0))),
    st.just(("run",)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_operations, max_size=25))
def test_scheduler_agrees_with_a_sorted_list_model(program):
    _run_program(program)


def test_model_agrees_across_a_compaction_triggered_inside_a_callback():
    program = [
        ("bulk", 80, 1.0),
        ("schedule", 0.5, ("cancel_span", 0, 50)),  # handle 80 kills the majority
        # Handle 81: cancels a compacted-away event, a pending one (twice),
        # a fired one and itself.
        ("schedule", 0.75, ("cancel", [3, 60, 60, 80, 81])),
        ("run_until", 0.5),
        ("run_until", 0.5),
        ("run",),
    ]
    real, model = _run_program(program)
    assert model.compactions == 1
    fired = [entry[1] for entry in real.log if entry[0] == "fire"]
    assert fired == [80, 81, *range(50, 60), *range(61, 80)]
    assert real.sim.pending == 0 and real.sim.cancelled_pending == 0


def test_model_agrees_when_posted_events_share_an_instant_with_a_compaction():
    program = [
        ("bulk", 70, 1.0),
        ("bulk_post", 10, 1.0),
        ("post", 0.5, ("cancel_span", 0, 60)),  # 60 of 81 entries dead: compacts
        ("schedule", 1.0, ("post", [(0.0, ("none",))])),
        ("run",),
    ]
    real, model = _run_program(program)
    assert model.compactions == 1
    fired = [entry[1] for entry in real.log if entry[0] == "fire"]
    assert fired == [-11, *range(60, 70), *range(-1, -11, -1), 70, -12]
    assert real.sim.pending == 0 and real.sim.cancelled_pending == 0
