"""Tests for the sans-I/O machine base class and its effect flushing."""

from repro.runtime.effects import CancelTimer, ChargeCpu, Send, SetTimer
from repro.runtime.machine import Machine


class FixedClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


class RecordingRuntime:
    def __init__(self) -> None:
        self.batches: list[list] = []
        self.recovered = 0

    def execute(self, effects) -> None:
        self.batches.append(effects)

    def machine_recovered(self) -> None:
        self.recovered += 1


class Toy(Machine):
    ENTRY_POINTS = Machine.ENTRY_POINTS + ("poke",)

    def on_message(self, sender, payload):
        self.charge(1.0)
        self.send(1, "reply")
        self.broadcast([0, 1, 2], "news")

    def poke(self):
        self.send(2, "poked")
        return "value"


def build():
    machine = Toy(0, FixedClock())
    runtime = RecordingRuntime()
    machine.runtime = runtime
    return machine, runtime


def test_entry_point_returns_ordered_effects():
    machine, runtime = build()
    effects = machine.on_message(1, "ping")
    assert effects == [
        ChargeCpu(1.0),
        Send((1,), "reply"),
        Send((1, 2), "news"),  # a broadcast leaves its sender out by default
    ]
    # The runtime saw exactly the same batch, exactly once.
    assert runtime.batches == [effects]


def test_a_broadcast_decides_its_receivers_once():
    machine, runtime = build()  # pid 0
    machine.broadcast([1, 0, 2], "a", include_self=True)  # keeps its place
    machine.broadcast([1, 2], "b", include_self=True)  # appended last
    machine.broadcast([1, 0, 2], "c")  # filtered out
    machine.broadcast((1, 2), "d")
    assert [effect.dests for (effect,) in runtime.batches] == [
        (1, 0, 2), (1, 2, 0), (1, 2), (1, 2)
    ]


def test_non_handler_entry_points_keep_their_return_value():
    machine, runtime = build()
    assert machine.poke() == "value"
    assert runtime.batches == [[Send((2,), "poked")]]


def test_effects_without_runtime_are_still_returned():
    machine = Toy(0, FixedClock())
    assert machine.on_message(1, "ping")[0] == ChargeCpu(1.0)


def test_crashed_machine_swallows_sends():
    machine, runtime = build()
    machine.crash()
    machine.send(1, "dead letter")
    machine.broadcast([1, 2], "dead news")
    assert runtime.batches == []


def test_timer_lifecycle_set_fire():
    machine, runtime = build()
    fired = []
    timer = machine.set_timer(250.0, lambda: fired.append(True))
    assert timer.active
    (batch,) = runtime.batches
    assert batch == [SetTimer(timer.timer_id, 250.0)]
    machine.on_timer(timer.timer_id)
    assert fired == [True]
    assert not timer.active


def test_timer_cancel_emits_once_and_disarms():
    machine, runtime = build()
    timer = machine.set_timer(250.0, lambda: None)
    timer.cancel()
    timer.cancel()  # idempotent: no second CancelTimer effect
    cancels = [e for batch in runtime.batches for e in batch
               if isinstance(e, CancelTimer)]
    assert cancels == [CancelTimer(timer.timer_id)]
    machine.on_timer(timer.timer_id)  # stale fire: callback must not run
    assert not timer.active


def test_charge_accumulates_and_skips_zero():
    machine, runtime = build()
    machine.charge(2.0)
    machine.charge(0.0)
    machine.charge(3.0)
    assert machine.cpu_time_charged == 5.0
    charges = [e for batch in runtime.batches for e in batch]
    assert charges == [ChargeCpu(2.0), ChargeCpu(3.0)]


def test_recover_notifies_runtime():
    machine, runtime = build()
    machine.crash()
    machine.recover()
    assert not machine.crashed
    assert runtime.recovered == 1
