"""Tests for seeded named RNG streams."""

from repro.core.rng import RngFactory, RngStream, derive_seed


def test_same_seed_same_name_same_draws():
    a = RngStream(1, "x")
    b = RngStream(1, "x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_independent():
    a = RngStream(1, "x")
    b = RngStream(1, "y")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = RngStream(1, "x")
    b = RngStream(2, "x")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_derive_seed_is_stable():
    assert derive_seed(7, "latency") == derive_seed(7, "latency")
    assert derive_seed(7, "latency") != derive_seed(7, "latency2")


def test_derive_seed_distinct_for_distinct_names():
    seeds = {derive_seed(7, name) for name in ("a", "b", "latency:0->1", "latency:1->0", "clients")}
    assert len(seeds) == 5


def test_derive_seed_identical_for_identical_inputs():
    for seed, name in [(0, "x"), (2**63, "x"), (7, "latency:3->7")]:
        assert derive_seed(seed, name) == derive_seed(seed, name)


def test_interleaved_draws_do_not_interfere():
    # Drawing from one stream must not perturb another: a stream's n-th
    # draw is the same whether or not other streams were used in between.
    solo = RngStream(11, "net")
    expected = [solo.random() for _ in range(8)]

    net = RngStream(11, "net")
    clients = RngStream(11, "clients")
    crash = RngStream(11, "crash")
    observed = []
    for i in range(8):
        clients.random()
        observed.append(net.random())
        crash.randint(0, 100)
        if i % 2:
            clients.expovariate(1.0)
    assert observed == expected


def test_uniform_bounds():
    stream = RngStream(3, "u")
    for _ in range(100):
        value = stream.uniform(2.0, 5.0)
        assert 2.0 <= value <= 5.0


def test_jitter_bounds():
    stream = RngStream(3, "j")
    for _ in range(100):
        value = stream.jitter(100.0, 0.1)
        assert 90.0 <= value <= 110.0


def test_jitter_zero_fraction_identity():
    stream = RngStream(3, "j0")
    assert stream.jitter(42.0, 0.0) == 42.0


def test_jitter_never_negative():
    stream = RngStream(3, "jneg")
    for _ in range(100):
        assert stream.jitter(0.001, 5.0) >= 0.0


def test_randint_bounds():
    stream = RngStream(4, "i")
    values = {stream.randint(1, 3) for _ in range(100)}
    assert values <= {1, 2, 3}
    assert len(values) == 3


def test_factory_streams_reproducible():
    f1 = RngFactory(9)
    f2 = RngFactory(9)
    assert f1.stream("a").random() == f2.stream("a").random()


def test_shuffle_and_choice():
    stream = RngStream(5, "s")
    items = list(range(20))
    shuffled = list(items)
    stream.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert stream.choice(items) in items


def test_expovariate_positive():
    stream = RngStream(6, "e")
    for _ in range(50):
        assert stream.expovariate(2.0) >= 0.0
