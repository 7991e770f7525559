"""Tests for the adversary registry (name -> spec lookup and seating)."""

import math

import pytest

from repro.adversary import ADVERSARIES, adversary_names, get_adversary
from repro.analysis.campaign import run_cell
from repro.errors import ConfigError
from repro.protocols.registry import SPECS, get_spec

#: Every (attack, protocol) pair the behaviours' own needs admit.
PAIRS = [
    (name, protocol)
    for name, spec in sorted(ADVERSARIES.items())
    for protocol in SPECS
    if spec.supports(protocol)
]


def test_all_expected_attacks_are_registered():
    assert adversary_names() == sorted(ADVERSARIES)
    assert set(adversary_names()) >= {
        "silent",
        "equivocate",
        "stale",
        "flood",
        "slow-drip",
        "withhold",
        "partition",
        "sync-forge",
        "amnesia",
        "spam",
    }


def test_unknown_name_raises_config_error():
    with pytest.raises(ConfigError, match="unknown adversary"):
        get_adversary("nope")


def test_unsupported_protocol_raises_config_error():
    amnesia = get_adversary("amnesia")  # TEE rollback: Damysus-only
    assert not amnesia.supports("hotstuff")
    with pytest.raises(ConfigError, match="does not support") as refused:
        amnesia.replica_class("hotstuff")
    assert amnesia.unsupported("hotstuff") == "no Checker, so no sealed state to roll back"
    assert str(refused.value).endswith(": " + amnesia.unsupported("hotstuff"))


def test_support_is_derived_from_what_each_behaviour_needs():
    everywhere = {"silent", "slow-drip", "spam", "partition", "sync-forge"}
    for name in everywhere:
        assert all(get_adversary(name).supports(p) for p in SPECS), name
    assert {p for p in SPECS if get_adversary("amnesia").supports(p)} == {
        p for p, spec in SPECS.items() if spec.replica_class.CHECKER is not None
    } == {"damysus", "damysus-c", "chained-damysus"}
    for spec in ADVERSARIES.values():
        for protocol in SPECS:
            reason = spec.unsupported(protocol)
            assert reason is None or (reason and "\n" not in reason), (spec.name, protocol)


def test_classes_subclass_the_honest_protocol_replicas():
    """Adversaries are sans-I/O Machines: same base class, any runtime."""
    for name, protocol in PAIRS:
        cls = get_adversary(name).replica_class(protocol)
        assert issubclass(cls, SPECS[protocol].replica_class), (name, protocol)
        assert get_adversary(name).replica_class(protocol) is cls, (name, protocol)


@pytest.mark.parametrize("name,protocol", PAIRS, ids=[f"{a}-{p}" for a, p in PAIRS])
def test_every_supported_pair_is_safe(name, protocol):
    """Each pair runs one clean cell; a STALLED verdict is a finding, not a failure."""
    cell = run_cell(protocol, get_adversary(name), "clean", "eu", seed=1)
    assert cell.safe, cell


@pytest.mark.parametrize("f", [1, 2])
def test_seats_are_valid_and_within_the_fault_bound(f):
    for name, protocol in PAIRS:
        n = get_spec(protocol).num_replicas(f)
        seats = get_adversary(name).seats(n, f)
        assert seats, name
        assert len(seats) <= f
        assert len(set(seats)) == len(seats)
        assert all(0 <= pid < n for pid in seats)


def test_withhold_takes_a_full_coalition():
    assert get_adversary("withhold").seats(7, 2) == (1, 2)


def test_replica_overrides_seat_the_attack_class_at_its_seats():
    """One seating rule: the spec's class at each of its seats, in seat order."""
    withhold = get_adversary("withhold")
    overrides = withhold.replica_overrides("hotstuff", 7, 2)
    assert list(overrides) == [1, 2]
    assert set(overrides.values()) == {withhold.replica_class("hotstuff")}
    assert get_adversary("none").replica_overrides("hotstuff", 4, 1) == {}
    with pytest.raises(ConfigError, match="does not support"):
        get_adversary("amnesia").replica_overrides("hotstuff", 4, 1)


def test_partition_colluder_is_never_its_own_victim():
    from repro.adversary.targeted_partition import victim_pids

    spec = get_adversary("partition")
    for n, f in ((3, 1), (4, 1), (7, 2)):
        (colluder,) = spec.seats(n, f)
        assert colluder not in victim_pids(n, f)


def test_colluding_plans_always_heal():
    """Every bundled fault plan ends, so liveness-after-heal is scorable."""
    for spec in ADVERSARIES.values():
        if spec.colluding_plan is None:
            continue
        plan = spec.colluding_plan(4, 1)
        assert math.isfinite(plan.healed_by_ms()), spec.name


def test_event_extractors_read_zero_off_a_blank_object():
    """Extractors sum counters defensively: absent attributes count as 0."""

    class Blank:
        pass

    for spec in ADVERSARIES.values():
        assert spec.events(Blank()) == 0
