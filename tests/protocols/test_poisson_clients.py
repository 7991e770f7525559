"""Tests for Poisson (exponential inter-arrival) client load."""


from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def build(poisson, seed=42):
    return ConsensusSystem(
        small_config(
            "damysus",
            open_loop=False,
            num_clients=2,
            client_interval_ms=5.0,
            client_poisson=poisson,
            block_size=20,
            seed=seed,
        )
    )


def test_poisson_clients_make_progress():
    system = build(poisson=True)
    system.run(400.0)
    assert sum(len(c.completed) for c in system.clients) > 0


def test_poisson_arrivals_are_irregular():
    system = build(poisson=True)
    system.run(400.0)
    times = sorted(system.clients[0].submitted.values())
    # Completed requests were popped from `submitted`; reconstruct from both.
    times = sorted(
        [c.submitted_at for c in system.clients[0].completed]
        + list(system.clients[0].submitted.values())
    )
    gaps = {round(b - a, 6) for a, b in zip(times, times[1:], strict=False)}
    assert len(gaps) > 3  # periodic arrivals would give a single gap


def test_periodic_arrivals_are_regular():
    system = build(poisson=False)
    system.run(400.0)
    client = system.clients[0]
    times = sorted(
        [c.submitted_at for c in client.completed] + list(client.submitted.values())
    )
    gaps = {round(b - a, 6) for a, b in zip(times, times[1:], strict=False)}
    assert gaps == {5.0}


def test_poisson_is_seed_deterministic():
    r1 = build(poisson=True, seed=7)
    r2 = build(poisson=True, seed=7)
    r1.run(300.0)
    r2.run(300.0)
    assert [c.tx_id for c in r1.clients[0].completed] == [
        c.tx_id for c in r2.clients[0].completed
    ]


def test_mean_rate_approximates_interval():
    system = build(poisson=True)
    system.run(2_000.0)
    client = system.clients[0]
    total = len(client.completed) + len(client.submitted)
    # ~400 expected at one submission per 5 ms over 2 s; allow wide slack.
    assert 200 < total < 700
