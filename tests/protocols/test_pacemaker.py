"""Tests for the pacemaker and leader rotation."""

from repro.protocols.pacemaker import Pacemaker, round_robin_leader
from repro.runtime.sim import MachineProcess
from repro.sim.events import Simulator
from repro.core.rng import RngStream
from tests.conftest import Recorder


def seated(sim):
    """A machine seated on ``sim``, to host a pacemaker's timers."""
    machine = Recorder(0, sim)
    MachineProcess(machine, sim)
    return machine


def make(base=100.0, backoff=2.0):
    sim = Simulator()
    fired = []
    pacemaker = Pacemaker(
        seated(sim), base, backoff, on_timeout=lambda view: fired.append((sim.now, view))
    )
    return sim, pacemaker, fired


def test_round_robin_rotates():
    assert [round_robin_leader(v, 4) for v in range(6)] == [0, 1, 2, 3, 0, 1]


def test_timeout_fires_with_view():
    sim, pacemaker, fired = make()
    pacemaker.start_view(3)
    sim.run()
    assert fired == [(100.0, 3)]
    assert pacemaker.timeouts_fired == 1


def test_success_cancels_timer():
    sim, pacemaker, fired = make()
    pacemaker.start_view(1)
    pacemaker.view_succeeded()
    sim.run()
    assert fired == []


def test_exponential_backoff():
    sim, pacemaker, fired = make(base=100.0, backoff=2.0)
    pacemaker.start_view(1)
    sim.run()
    assert pacemaker.current_timeout_ms == 200.0
    pacemaker.start_view(2)
    sim.run()
    assert pacemaker.current_timeout_ms == 400.0


def test_linear_decrease_on_success():
    sim, pacemaker, fired = make(base=100.0)
    pacemaker.current_timeout_ms = 400.0
    pacemaker.start_view(1)
    pacemaker.view_succeeded()
    assert pacemaker.current_timeout_ms == 350.0  # decrease = base / 2
    for _ in range(100):
        pacemaker.view_succeeded()
    assert pacemaker.current_timeout_ms == 100.0  # floored at base


def test_backoff_capped_at_max_timeout():
    sim, pacemaker, fired = make(base=100.0, backoff=2.0)
    for view in range(1, 10):
        pacemaker.start_view(view)
        sim.run()
    assert pacemaker.current_timeout_ms == 400.0  # capped at 4x base


def test_jitter_perturbs_the_armed_timeout_but_not_the_backoff():
    sim = Simulator()
    fired = []
    pacemaker = Pacemaker(
        seated(sim),
        100.0,
        on_timeout=lambda view: fired.append(sim.now),
        jitter_fraction=0.2,
        rng=RngStream(1, "jitter-test"),
    )
    pacemaker.start_view(1)
    sim.run()
    assert fired[0] != 100.0  # perturbed...
    assert 80.0 <= fired[0] <= 120.0  # ...within +/- 20%
    assert pacemaker.current_timeout_ms == 200.0  # backoff uses the base


def test_jitter_is_deterministic_per_seed():
    def fire_times(seed):
        sim = Simulator()
        pacemaker = Pacemaker(
            seated(sim),
            100.0,
            jitter_fraction=0.2,
            rng=RngStream(seed, "jitter-test"),
        )
        times = []
        for view in range(1, 4):
            pacemaker.start_view(view)
            sim.run()
            times.append(sim.now)
        return times

    assert fire_times(7) == fire_times(7)
    assert fire_times(7) != fire_times(8)


def test_jitter_off_by_default():
    sim, pacemaker, fired = make()
    pacemaker.start_view(1)
    sim.run()
    assert fired == [(100.0, 1)]  # exact base timeout, no perturbation


def test_new_view_replaces_timer():
    sim, pacemaker, fired = make()
    pacemaker.start_view(1)
    pacemaker.start_view(2)  # re-arms; view-1 timer must not fire
    sim.run()
    assert [view for _, view in fired] == [2]


def test_custom_max_timeout_overrides_the_default_cap():
    sim = Simulator()
    pacemaker = Pacemaker(
        seated(sim), 100.0, 2.0, on_timeout=lambda view: None,
        max_timeout_ms=250.0,
    )
    for view in range(1, 10):
        pacemaker.start_view(view)
        sim.run()
    assert pacemaker.current_timeout_ms == 250.0
