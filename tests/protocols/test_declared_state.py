"""Declared replica state: every attribute in exactly one class, and a
crash loses exactly the ``VOLATILE`` ones (``repro.protocols.state``)."""

import copy
import re
from pathlib import Path

import pytest

from repro.adversary.registry import ADVERSARIES
from repro.core.messages import ViewAnnounce
from repro.protocols.damysus import DamysusReplica
from repro.protocols.pacemaker import Pacemaker
from repro.protocols.registry import SPECS
from repro.protocols.replica import BaseReplica
from repro.runtime.machine import Machine
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config

KINDS = ("VOLATILE", "SEALED", "DURABLE", "WIRING")


def owners(replica):
    """The replica and every object whose state it is made of."""
    return [replica, replica.pacemaker, *(getattr(replica, a) for a in replica.COMPONENTS)]


def declarations(cls):
    """``(kind, name)`` for every declaration along the MRO, repeats kept.

    A replica's ``COLLECTORS`` / ``VIEW_SETS`` are volatile and its
    ``COMPONENTS`` wiring, each listed once, in the class that has the
    final word on them.
    """
    found = [
        (kind, name)
        for klass in cls.__mro__
        for kind in KINDS
        for name in vars(klass).get(kind, ())
    ]
    found += [("VOLATILE", name) for name in getattr(cls, "COLLECTORS", ())]
    found += [("VOLATILE", name) for name in getattr(cls, "VIEW_SETS", ())]
    found += [("WIRING", name) for name in getattr(cls, "COMPONENTS", ())]
    return found


def problems(obj):
    """(attributes nobody declared, names declared more than once)."""
    names = [name for _, name in declarations(type(obj))]
    undeclared = sorted(set(vars(obj)) - set(names))
    twice = sorted({name for name in names if names.count(name) > 1})
    return undeclared, twice


def kind_of(obj, name):
    return next(kind for kind, declared in declarations(type(obj)) if declared == name)


def volatile_starts(obj):
    """Each ``VOLATILE`` name of ``obj`` with its declared start."""
    starts = {}
    for klass in reversed(type(obj).__mro__):
        starts.update(vars(klass).get("VOLATILE", {}))
    return starts


def at_start(obj, name, start):
    value = getattr(obj, name)
    if name in getattr(obj, "COLLECTORS", ()):
        return value.pending_keys() == 0
    if name in getattr(obj, "VIEW_SETS", ()):
        return value == set()
    if isinstance(start, type):
        fresh = start()
        return value == fresh if isinstance(fresh, (dict, set, list)) else vars(value) == vars(fresh)
    if callable(start):  # emptied in place: the mempool
        return value.pending() == 0
    return value == start


def assert_all_declared(replica):
    for obj in owners(replica):
        assert problems(obj) == ([], []), type(obj).__name__


@pytest.mark.parametrize("protocol", SPECS)
def test_every_attribute_of_every_protocol_is_declared_once(protocol):
    system = ConsensusSystem(
        small_config(protocol, checkpoint_interval=5, num_clients=1, open_loop=False)
    )
    system.run_until_views(8, max_time_ms=600_000)
    for replica in system.replicas:
        assert_all_declared(replica)


ADVERSARY_CLASSES = sorted(
    {
        (protocol, spec.replica_class(protocol))
        for spec in ADVERSARIES.values()
        for protocol in SPECS
        if spec.supports(protocol)
    },
    key=lambda entry: (entry[0], entry[1].__name__),
)


@pytest.mark.parametrize(
    "protocol,cls", ADVERSARY_CLASSES, ids=[cls.__name__ for _, cls in ADVERSARY_CLASSES]
)
def test_every_attribute_of_every_adversary_is_declared_once(protocol, cls):
    system = ConsensusSystem(small_config(protocol), replica_overrides={1: cls})
    system.start()
    system.run(400.0)
    assert isinstance(system.replicas[1], cls)
    assert_all_declared(system.replicas[1])


def test_an_undeclared_or_twice_declared_attribute_fails_the_check():
    class Sloppy(DamysusReplica):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._seen_digests = {}  # nobody said what a crash does to it

    class Twice(DamysusReplica):
        DURABLE = ("acc_service",)  # the chassis already calls it wiring

    system = ConsensusSystem(small_config("damysus"), replica_overrides={1: Sloppy, 2: Twice})
    assert problems(system.replicas[1]) == (["_seen_digests"], [])
    assert problems(system.replicas[2]) == ([], ["acc_service"])
    assert problems(system.replicas[0]) == ([], [])


def snapshot(obj, name):
    value = getattr(obj, name)
    return value, copy.copy(value) if isinstance(value, (dict, set, list)) else value


#: What ``crash()`` itself writes: the seat's flag, effect buffer and timer
#: table, the run counter, and the durable record the host's disk keeps.
WRITTEN_BY_CRASH = {"crashed", "_effects", "_timer_fns", "crash_count", "disk"}


def test_a_crash_loses_exactly_the_volatile_state():
    system = ConsensusSystem(
        small_config(
            "damysus", checkpoint_interval=5, num_clients=4, open_loop=False,
            client_interval_ms=2.0, client_poisson=True,
        )
    )
    system.run_until_views(12, max_time_ms=600_000)
    replica = system.replicas[1]
    view = replica.view
    # Volatile state worth losing: claims of view + 1 from f + 1 = 2
    # peers (no jump at a one-view lead), traffic held for a later view,
    # a catch-up round with its timer armed; the pool has residents.
    for peer in (0, 2):
        replica.on_message(peer, ViewAnnounce(view + 1))
    replica.buffer.hold(view + 5, 0, "held")
    replica.catchup.start()
    assert replica.mempool.pending() > 0
    assert replica.viewsync.highest_view_seen == view + 1
    step = replica.checker.step
    kept = {
        (id(obj), name): snapshot(obj, name)
        for obj in owners(replica)
        for name in vars(obj)
        if kind_of(obj, name) != "VOLATILE" and name not in WRITTEN_BY_CRASH
    }
    replica.crash()
    for obj in owners(replica):
        starts = volatile_starts(obj)
        for name in vars(obj):
            if kind_of(obj, name) == "VOLATILE":
                assert at_start(obj, name, starts.get(name)), (type(obj).__name__, name)
                continue
            if name in WRITTEN_BY_CRASH:
                continue
            before, contents = kept[id(obj), name]
            after = getattr(obj, name)
            assert after is before and contents == (
                copy.copy(after) if isinstance(after, (dict, set, list)) else after
            ), (type(obj).__name__, name)
    assert replica.crashed and replica.crash_count == 1
    # Nothing a crash lost may fire into the restarted replica.
    assert replica.pacemaker._timer is None and replica.catchup._timer is None
    replica.recover()
    assert replica.checker.step == step  # the sealed state came back
    assert replica.view >= view


def test_the_watermark_survives_a_crash_and_the_claims_do_not():
    """Pinned in ``ViewSync``'s declaration: the watermark is a
    corroborated fact about the cluster a restart does not make false,
    the claims raw inputs the next message from each peer rebuilds."""
    system = ConsensusSystem(small_config("damysus", f=2))
    system.run_until_views(3, max_time_ms=600_000)
    replica = system.replicas[0]
    view = replica.view
    for peer in (1, 2, 3):
        replica.on_message(peer, ViewAnnounce(view + 1))
    viewsync = replica.viewsync
    assert viewsync.highest_view_seen == view + 1 and len(viewsync._peer_view_claims) == 3
    assert kind_of(viewsync, "highest_view_seen") == "DURABLE"
    assert kind_of(viewsync, "_peer_view_claims") == "VOLATILE"
    replica.crash()
    assert viewsync.highest_view_seen == view + 1
    assert viewsync._peer_view_claims == {}
    # Pacemaker backoff is on the same side of the line as the watermark.
    assert kind_of(replica.pacemaker, "current_timeout_ms") == "DURABLE"


# -- docs/architecture.md's state table ------------------------------------------

TABLE_CLASSES = {
    cls.__name__: cls
    for cls in (
        Machine, BaseReplica, Pacemaker, *BaseReplica.COMPONENTS.values(),
        *(
            klass
            for spec in SPECS.values()
            for klass in spec.replica_class.__mro__
            if issubclass(klass, BaseReplica) and klass is not BaseReplica
        ),
    )
}


def test_the_architecture_state_table_matches_the_declarations():
    text = (Path(__file__).resolve().parents[2] / "docs" / "architecture.md").read_text()
    begin, end = "<!-- state:begin -->", "<!-- state:end -->"
    rows = {}
    for line in text[text.index(begin) : text.index(end)].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[1] in KINDS:
            rows[cells[0].strip("`"), cells[1]] = re.findall(r"`([^`]+)`", cells[2])
    expected = {
        (name, kind): list(vars(cls)[kind])
        for name, cls in TABLE_CLASSES.items()
        for kind in KINDS
        if vars(cls).get(kind)
    }
    assert rows == expected
