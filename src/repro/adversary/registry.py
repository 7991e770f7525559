"""The adversary registry: every attack, addressable by name.

One :class:`AdversarySpec` per attack binds together everything the
harnesses need to run it on either runtime:

* the attack's :class:`~repro.adversary.behaviors.Behaviour`, written
  once; :meth:`AdversarySpec.replica_class` composes it in front of a
  protocol's replica class, and the behaviour's own needs
  (:meth:`~repro.adversary.behaviors.Behaviour.unfit`) decide which
  protocols it supports and why not the others.  Adversaries are sans-I/O
  Machines, so the same class runs on the simulator via
  ``ConsensusSystem(replica_overrides=...)`` and on asyncio TCP via
  ``LocalCluster(adversary=...)`` / ``repro serve --adversary``;
* which pids to seat it at for a given cluster size (a coalition takes
  ``f`` seats, most attacks take one) - :meth:`AdversarySpec.replica_overrides`
  is that rule, used by ``repro run --adversary`` on both runtimes and by
  every campaign cell;
* an optional *colluding fault plan* - network/crash faults the attack
  coordinates with (leader isolation, the crash that triggers an
  amnesia restart, the outage that forces a victim into catch-up);
* a counter extractor, so harnesses can assert the attack actually
  fired (``attack_events > 0``) rather than silently testing nothing.

``repro campaign`` sweeps this registry; ``repro run --adversary``,
``repro net-chaos --adversary`` and ``repro serve --adversary`` look
names up here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.adversary.amnesia import Amnesia
from repro.adversary.behaviors import Behaviour, SilentLeader
from repro.adversary.equivocation import EquivocatingLeader
from repro.adversary.flooding import Flooding
from repro.adversary.slow_drip import SlowDripLeader
from repro.adversary.spammer import MempoolSpammer
from repro.adversary.stale_leader import Stale
from repro.adversary.sync_server import ByzantineSyncServer
from repro.adversary.targeted_partition import TargetedPartition, leader_isolation_plan, victim_pids
from repro.adversary.withholding import VoteWithholding
from repro.core.faults import FaultPlan
from repro.errors import ConfigError
from repro.protocols.registry import SPECS
from repro.protocols.replica import BaseReplica


def _single_seat(num_replicas: int, f: int) -> tuple[int, ...]:
    """One Byzantine seat at pid 1: the leader of view 1, so leader-side
    attacks fire in the very first rotation."""
    return (1,)


def _coalition_seats(num_replicas: int, f: int) -> tuple[int, ...]:
    """``f`` colluding seats (the fault bound the protocols tolerate)."""
    return tuple(range(1, 1 + f))


def _colluder_seat(num_replicas: int, f: int) -> tuple[int, ...]:
    """A seat that is *not* among the partition victims it colludes against."""
    victims = set(victim_pids(num_replicas, f))
    for pid in range(num_replicas):
        if pid not in victims:
            return (pid,)
    return (0,)


def _amnesia_plan(num_replicas: int, f: int) -> FaultPlan:
    """Crash the amnesia replica mid-run; recovery presents stale state."""
    return FaultPlan().crash(1, at_ms=800.0, recover_at_ms=1_600.0)


def _sync_victim_plan(num_replicas: int, f: int) -> FaultPlan:
    """Knock an honest replica out long enough to need state transfer.

    The victim (the last pid; the forger sits at pid 1) misses a window
    of views and comes back behind, so its catch-up client starts
    requesting history - some requests land on the Byzantine server.
    """
    return FaultPlan().crash(num_replicas - 1, at_ms=400.0, recover_at_ms=2_400.0)


def _counter(*names: str) -> Callable[[Any], int]:
    """Sum the named attack counters (``a.b``: off component ``a``), absent as 0."""

    def events(replica: Any) -> int:
        total = 0
        for name in names:
            value = replica
            for attr in name.split("."):
                value = getattr(value, attr, 0)
            total += int(value)
        return total

    return events


@functools.cache
def _compose(behaviour: type[Behaviour], base: type[BaseReplica]) -> type[BaseReplica]:
    """``behaviour`` in front of ``base``: one class per pair, built once."""
    name = behaviour.__name__ + base.__name__
    return type(name, (behaviour, base), {"__module__": behaviour.__module__, "__qualname__": name})


@dataclass(frozen=True)
class AdversarySpec:
    """Everything needed to run one named attack on any harness."""

    name: str
    description: str
    #: The attack, written once for every protocol (``None``: honest).
    behaviour: type[Behaviour] | None
    #: Which pids to seat the adversary at for (num_replicas, f).
    seats: Callable[[int, int], tuple[int, ...]] = _single_seat
    #: Network/crash faults the attack coordinates with (or ``None``).
    colluding_plan: Callable[[int, int], FaultPlan] | None = None
    #: Extract the attack-event count from an adversary instance.
    events: Callable[[Any], int] = field(default=_counter())

    def unsupported(self, protocol: str) -> str | None:
        """Why the attack cannot run on ``protocol`` (``None``: it can)."""
        if protocol not in SPECS:
            return "unknown protocol"
        if self.behaviour is None:
            return None
        return self.behaviour.unfit(SPECS[protocol].replica_class)

    def supports(self, protocol: str) -> bool:
        return self.unsupported(protocol) is None

    def replica_class(self, protocol: str) -> type[BaseReplica]:
        """The attack's replica class on ``protocol``, the same object every call."""
        reason = self.unsupported(protocol)
        if reason is not None:
            raise ConfigError(
                f"adversary {self.name!r} does not support protocol {protocol!r}: {reason}"
            )
        base = SPECS[protocol].replica_class
        return base if self.behaviour is None else _compose(self.behaviour, base)

    def replica_overrides(self, protocol: str, num_replicas: int, f: int) -> dict[int, type]:
        """The attack's seats in a ``num_replicas``-replica ``protocol`` cluster, pid -> class.

        The one seating rule every harness applies (``ConsensusSystem``'s
        and ``LocalCluster``'s ``replica_overrides``), in seat order.
        """
        return {pid: self.replica_class(protocol) for pid in self.seats(num_replicas, f)}


ADVERSARIES: dict[str, AdversarySpec] = {
    spec.name: spec
    for spec in (
        AdversarySpec(
            name="silent",
            description="leader never proposes; every one of its views times out",
            behaviour=SilentLeader,
            events=_counter("withheld_proposals"),
        ),
        AdversarySpec(
            name="equivocate",
            description="leader sends conflicting proposals to two halves",
            behaviour=EquivocatingLeader,
            events=_counter("equivocations", "failed_equivocations"),
        ),
        AdversarySpec(
            name="stale",
            description="leader certifies/extends a stale prepared block",
            behaviour=Stale,
            events=_counter(
                "understated_views", "discarded_commitments", "stale_proposals"
            ),
        ),
        AdversarySpec(
            name="flood",
            description="sprays far-future junk to exhaust message buffers",
            behaviour=Flooding,
            events=_counter("flood_count"),
        ),
        AdversarySpec(
            name="slow-drip",
            description="leader proposes just under the view timeout to "
            "bleed throughput without triggering view-changes",
            behaviour=SlowDripLeader,
            events=_counter("dripped_views"),
        ),
        AdversarySpec(
            name="withhold",
            description="coalition of f replicas withholds its phase votes",
            behaviour=VoteWithholding,
            seats=_coalition_seats,
            events=_counter("votes_withheld"),
        ),
        AdversarySpec(
            name="partition",
            description="colludes with a fault plan isolating the next f leaders",
            behaviour=TargetedPartition,
            seats=_colluder_seat,
            colluding_plan=leader_isolation_plan,
            events=_counter("suppressed_messages"),
        ),
        AdversarySpec(
            name="sync-forge",
            description="serves forged checkpoints/suffixes to catching-up peers",
            behaviour=ByzantineSyncServer,
            colluding_plan=_sync_victim_plan,
            events=_counter("catchup.forged_checkpoints_sent", "catchup.forged_suffixes_sent"),
        ),
        AdversarySpec(
            name="amnesia",
            description="restarts presenting pre-seal TEE state (rollback)",
            behaviour=Amnesia,
            colluding_plan=_amnesia_plan,
            events=_counter("rollback_attempts"),
        ),
        AdversarySpec(
            name="spam",
            description="floods peers with min-fee transactions to drive "
            "mempool eviction and backpressure",
            behaviour=MempoolSpammer,
            events=_counter("spam_sent"),
        ),
    )
}


#: The honest "adversary" ``none``: no behaviour, so it runs on every
#: protocol; it seats nobody and brings no plan, so a cell runs its base
#: plan alone (the honest ``chaos`` cell is one).  Looked up
#: by name, never swept by default: it is not in :data:`ADVERSARIES`.
HONEST = AdversarySpec(
    name="none",
    description="no attack: every replica is honest",
    behaviour=None,
    seats=lambda num_replicas, f: (),
)


def adversary_names() -> list[str]:
    """All registered attack names, sorted for stable CLI/report output."""
    return sorted(ADVERSARIES)


def get_adversary(name: str) -> AdversarySpec:
    """Look up an attack by name; :class:`ConfigError` on unknown names."""
    if name == HONEST.name:
        return HONEST
    try:
        return ADVERSARIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown adversary {name!r} (known: {', '.join(adversary_names())})"
        ) from None
