"""Runtime-agnostic fault model: lossy links, partitions, crash schedules.

The paper's trust model is exercised exactly where things fail - a
restarted checker must resume from its latest sealed step, views must
recover after partitions heal (GST), and quorums must form despite
dropped and duplicated messages.  This module provides the fault model
shared by *both* runtimes: the discrete-event simulator
(:meth:`FaultPlan.install` wires a plan into the simulated network) and the
asyncio TCP runtime (:mod:`repro.runtime.resilience.transport` applies
the same rules to real frames):

* :class:`LinkFaultRule` - probabilistic drop / duplication / extra delay
  on matching links, active during a time window;
* :class:`PartitionRule` - a (one-way or symmetric) partition between
  process groups with a scheduled healing time, modelling GST;
* :class:`CrashEvent` - a scheduled crash, optionally followed by a
  recovery (which, for TEE-bearing replicas, unseals checker state);
* :class:`FaultPlan` - a composable, replayable bundle of the above;
* :func:`evaluate_rules` - the one shared implementation of "what does
  this rule set do to this message", so simulator and socket runs agree
  on semantics by construction;
* :func:`standard_chaos_plan` and :func:`net_chaos_plans` - the named
  fault scenarios the campaign's ``chaos`` cell and ``repro net-chaos``
  play.

All randomness is drawn from seeded :class:`~repro.core.rng.RngStream`
objects supplied by the caller, so a chaos run is a pure function of
(seed, plan, config): every run is replayable bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.core.codec import msg_type_of
from repro.core.rng import RngStream
from repro.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class FaultAction:
    """The fault pipeline's decision for one message.

    ``drop`` suppresses delivery entirely; otherwise ``duplicates`` extra
    copies are injected and every copy is delayed by ``extra_delay_ms``
    on top of the modelled link latency (which is how reordering arises).
    """

    drop: bool = False
    duplicates: int = 0
    extra_delay_ms: float = 0.0


#: Convenience constant for filters that only ever drop.
DROP = FaultAction(drop=True)


class FaultRule:
    """One composable fault source; subclasses implement :meth:`decide`."""

    def decide(
        self, src: int, dst: int, payload: Any, now: float, rng: RngStream
    ) -> FaultAction | None:
        """The rule's verdict for one message, or ``None`` to pass."""
        raise NotImplementedError

    def healed_by_ms(self) -> float:
        """Virtual time at which this rule stops injecting faults."""
        return 0.0


def _as_pidset(pids: Iterable[int] | int | None) -> frozenset[int] | None:
    if pids is None:
        return None
    if isinstance(pids, int):
        return frozenset((pids,))
    return frozenset(pids)


@dataclass(frozen=True)
class LinkFaultRule(FaultRule):
    """Probabilistic per-link faults inside an active time window.

    ``src``/``dst``/``msg_types`` of ``None`` match everything;
    self-sends are never faulted (loopback does not cross the wire).
    Each probability is evaluated independently so drop, duplication and
    delay compose on one rule.
    """

    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    delay_prob: float = 0.0
    max_extra_delay_ms: float = 0.0
    src: frozenset[int] | None = None
    dst: frozenset[int] | None = None
    msg_types: frozenset[str] | None = None
    start_ms: float = 0.0
    end_ms: float = math.inf

    def matches(self, src: int, dst: int, payload: Any, now: float) -> bool:
        if src == dst:
            return False
        if not (self.start_ms <= now < self.end_ms):
            return False
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        if self.msg_types is not None and msg_type_of(payload) not in self.msg_types:
            return False
        return True

    def decide(
        self, src: int, dst: int, payload: Any, now: float, rng: RngStream
    ) -> FaultAction | None:
        if not self.matches(src, dst, payload, now):
            return None
        if self.drop_prob > 0.0 and rng.random() < self.drop_prob:
            return DROP
        duplicates = 0
        if self.duplicate_prob > 0.0 and rng.random() < self.duplicate_prob:
            duplicates = 1
        extra = 0.0
        if self.max_extra_delay_ms > 0.0 and (
            self.delay_prob >= 1.0 or rng.random() < self.delay_prob
        ):
            extra = rng.uniform(0.0, self.max_extra_delay_ms)
        if duplicates or extra > 0.0:
            return FaultAction(duplicates=duplicates, extra_delay_ms=extra)
        return None

    def healed_by_ms(self) -> float:
        return self.end_ms


@dataclass(frozen=True)
class PartitionRule(FaultRule):
    """Messages crossing group boundaries are dropped until healing.

    ``groups`` are disjoint pid sets; processes in no group are
    unaffected.  A symmetric partition cuts traffic in both directions;
    a one-way partition (``symmetric=False``) only cuts traffic *leaving*
    the first group, modelling an asymmetric link failure.
    """

    groups: tuple[frozenset[int], ...]
    start_ms: float = 0.0
    heal_ms: float = math.inf
    symmetric: bool = True

    def _group_of(self, pid: int) -> int | None:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        return None

    def decide(
        self, src: int, dst: int, payload: Any, now: float, rng: RngStream
    ) -> FaultAction | None:
        if not (self.start_ms <= now < self.heal_ms):
            return None
        gsrc = self._group_of(src)
        gdst = self._group_of(dst)
        if gsrc is None or gdst is None or gsrc == gdst:
            return None
        if not self.symmetric and gsrc != 0:
            return None
        return DROP

    def healed_by_ms(self) -> float:
        return self.heal_ms


@dataclass(frozen=True)
class CrashEvent:
    """A scheduled crash of one replica, optionally followed by recovery."""

    pid: int
    at_ms: float
    recover_at_ms: float | None = None

    def __post_init__(self) -> None:
        if self.recover_at_ms is not None and self.recover_at_ms <= self.at_ms:
            raise SimulationError(
                f"crash of pid {self.pid}: recovery at {self.recover_at_ms} ms "
                f"does not follow the crash at {self.at_ms} ms"
            )


def unwindowed(rule: FaultRule) -> FaultRule:
    """``rule`` active for ever, as it acts inside its window.

    A replica process keeps its own clock, so a rule crosses to it (and
    into a decision table) without its window.
    """
    if isinstance(rule, PartitionRule):
        return replace(rule, start_ms=0.0, heal_ms=math.inf)
    if isinstance(rule, LinkFaultRule):
        return replace(rule, start_ms=0.0, end_ms=math.inf)
    return rule


def evaluate_rules(
    rules: Sequence[FaultRule],
    src: int,
    dst: int,
    payload: Any,
    now: float,
    rng: RngStream,
) -> FaultAction | None:
    """Combine every rule's verdict for one message.

    This is the one shared semantics of a rule set: rules are consulted
    in order, a drop wins immediately (consuming no further randomness),
    and duplications / extra delays accumulate across rules.  Both the
    simulated network and the socket-level fault transport call this, so
    a plan means the same thing on both runtimes.  The order of ``rng``
    draws is part of the contract - changing it would silently re-seed
    every recorded chaos baseline.
    """
    duplicates = 0
    extra = 0.0
    acted = False
    for rule in rules:
        decision = rule.decide(src, dst, payload, now, rng)
        if decision is None:
            continue
        if decision.drop:
            return decision
        acted = True
        duplicates += decision.duplicates
        extra += decision.extra_delay_ms
    if not acted:
        return None
    return FaultAction(duplicates=duplicates, extra_delay_ms=extra)


@dataclass
class FaultPlan:
    """A replayable chaos schedule: link-fault rules plus crash events.

    Builder methods return ``self`` so plans read as one expression::

        plan = (
            FaultPlan()
            .lossy_links(0.2, end_ms=4_000.0)
            .partition({0}, {1, 2}, at_ms=1_000.0, heal_ms=2_500.0)
            .crash(2, at_ms=500.0, recover_at_ms=3_000.0)
        )

    Installing the same plan on systems built from the same config and
    seed yields identical runs.  Simulator installation lives in
    :meth:`install` (duck-typed against the simulated network so this
    module never imports :mod:`repro.sim`); the socket runtime consumes
    plans through :class:`repro.runtime.resilience.transport.FaultDecider`.
    """

    rules: list[FaultRule] = field(default_factory=list)
    crashes: list[CrashEvent] = field(default_factory=list)

    # -- builders -----------------------------------------------------------

    def add_rule(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def lossy_links(
        self,
        drop_prob: float,
        *,
        start_ms: float = 0.0,
        end_ms: float = math.inf,
        src: Iterable[int] | int | None = None,
        dst: Iterable[int] | int | None = None,
        msg_types: Iterable[str] | None = None,
    ) -> "FaultPlan":
        """Drop each matching message independently with ``drop_prob``."""
        return self.add_rule(
            LinkFaultRule(
                drop_prob=drop_prob,
                src=_as_pidset(src),
                dst=_as_pidset(dst),
                msg_types=None if msg_types is None else frozenset(msg_types),
                start_ms=start_ms,
                end_ms=end_ms,
            )
        )

    def duplicating_links(
        self,
        duplicate_prob: float,
        *,
        start_ms: float = 0.0,
        end_ms: float = math.inf,
        src: Iterable[int] | int | None = None,
        dst: Iterable[int] | int | None = None,
    ) -> "FaultPlan":
        """Deliver an extra copy of matching messages with ``duplicate_prob``."""
        return self.add_rule(
            LinkFaultRule(
                duplicate_prob=duplicate_prob,
                src=_as_pidset(src),
                dst=_as_pidset(dst),
                start_ms=start_ms,
                end_ms=end_ms,
            )
        )

    def delaying_links(
        self,
        max_extra_delay_ms: float,
        *,
        delay_prob: float = 1.0,
        start_ms: float = 0.0,
        end_ms: float = math.inf,
        src: Iterable[int] | int | None = None,
        dst: Iterable[int] | int | None = None,
    ) -> "FaultPlan":
        """Add up to ``max_extra_delay_ms`` of extra delay (causes reordering)."""
        return self.add_rule(
            LinkFaultRule(
                delay_prob=delay_prob,
                max_extra_delay_ms=max_extra_delay_ms,
                src=_as_pidset(src),
                dst=_as_pidset(dst),
                start_ms=start_ms,
                end_ms=end_ms,
            )
        )

    def partition(
        self,
        *groups: Iterable[int],
        at_ms: float = 0.0,
        heal_ms: float = math.inf,
        symmetric: bool = True,
    ) -> "FaultPlan":
        """Partition the given pid groups from ``at_ms`` until ``heal_ms``."""
        if len(groups) < 2:
            raise SimulationError("a partition needs at least two groups")
        return self.add_rule(
            PartitionRule(
                groups=tuple(frozenset(g) for g in groups),
                start_ms=at_ms,
                heal_ms=heal_ms,
                symmetric=symmetric,
            )
        )

    def crash(
        self, pid: int, at_ms: float, recover_at_ms: float | None = None
    ) -> "FaultPlan":
        """Crash ``pid`` at ``at_ms``; recover it later unless ``None``."""
        self.crashes.append(CrashEvent(pid, at_ms, recover_at_ms))
        return self

    # -- introspection ------------------------------------------------------

    def healed_by_ms(self) -> float:
        """Virtual time by which every *healing* fault has ceased.

        Permanent crashes (no recovery time) do not count: they are
        ordinary crash faults the protocol must tolerate within ``f``.
        Returns ``inf`` when some link rule never ends.
        """
        healed = 0.0
        for rule in self.rules:
            healed = max(healed, rule.healed_by_ms())
        for event in self.crashes:
            if event.recover_at_ms is not None:
                healed = max(healed, event.recover_at_ms)
        return healed

    # -- installation -------------------------------------------------------

    def install(
        self,
        network: Any,
        rng: RngStream,
        replicas: Any = None,
    ) -> None:
        """Wire this plan into a simulated network: filters now, crashes
        on schedule.

        ``network`` is a :class:`repro.sim.network.Network` (duck-typed
        here so the fault model itself stays simulator-free) and
        ``replicas`` maps pid to process; the mapping is required when
        the plan schedules crash events.
        """
        sim = network.sim
        rules = tuple(self.rules)
        if rules:

            def chaos_filter(src: int, dst: int, payload: Any) -> FaultAction | None:
                return evaluate_rules(rules, src, dst, payload, sim.now, rng)

            network.add_fault_filter(chaos_filter)
        if self.crashes:
            if replicas is None:
                raise SimulationError(
                    "fault plan schedules crashes but no replicas were given"
                )
            for event in self.crashes:
                target = replicas[event.pid]
                sim.schedule_at(event.at_ms, target.crash)
                if event.recover_at_ms is not None:
                    sim.schedule_at(event.recover_at_ms, target.recover)

    # -- (de)serialization ---------------------------------------------------

    def rules_spec(self) -> str:
        """JSON spec of the link/partition rules (crash events excluded).

        Crash schedules are orchestration, not wire behaviour: on real
        deployments the supervisor kills processes, so only rules travel
        to replica processes (``repro serve --fault-spec``).
        """
        encoded: list[dict[str, Any]] = []
        for rule in self.rules:
            if isinstance(rule, LinkFaultRule):
                encoded.append(
                    {
                        "kind": "link",
                        "drop_prob": rule.drop_prob,
                        "duplicate_prob": rule.duplicate_prob,
                        "delay_prob": rule.delay_prob,
                        "max_extra_delay_ms": rule.max_extra_delay_ms,
                        "src": None if rule.src is None else sorted(rule.src),
                        "dst": None if rule.dst is None else sorted(rule.dst),
                        "msg_types": (
                            None if rule.msg_types is None else sorted(rule.msg_types)
                        ),
                        "start_ms": _json_num(rule.start_ms),
                        "end_ms": _json_num(rule.end_ms),
                    }
                )
            elif isinstance(rule, PartitionRule):
                encoded.append(
                    {
                        "kind": "partition",
                        "groups": [sorted(group) for group in rule.groups],
                        "start_ms": _json_num(rule.start_ms),
                        "heal_ms": _json_num(rule.heal_ms),
                        "symmetric": rule.symmetric,
                    }
                )
            else:
                raise SimulationError(
                    f"rule {type(rule).__name__} has no JSON spec encoding"
                )
        return json.dumps({"version": 1, "rules": encoded}, indent=2, sort_keys=True)

    @classmethod
    def from_rules_spec(cls, spec: str | bytes) -> "FaultPlan":
        """Rebuild a (rules-only) plan from :meth:`rules_spec` output.

        The spec is outside input (an orchestrator rewrites it while
        replicas run), so every malformed one - bad JSON or UTF-8, a wrong
        shape, an unknown kind, a value of the wrong type - is a
        :class:`~repro.errors.ConfigError` and nothing else.
        """
        try:
            entries = json.loads(spec).get("rules", [])
            return cls(rules=[_rule_from_spec(entry) for entry in entries])
        except (AttributeError, ArithmeticError, KeyError, RecursionError, TypeError,
                ValueError) as exc:
            raise ConfigError(f"malformed fault spec: {exc!r}") from exc


def _rule_from_spec(entry: dict[str, Any]) -> FaultRule:
    kind = entry.get("kind")
    if kind == "link":
        return LinkFaultRule(
            drop_prob=float(entry.get("drop_prob", 0.0)),
            duplicate_prob=float(entry.get("duplicate_prob", 0.0)),
            delay_prob=float(entry.get("delay_prob", 0.0)),
            max_extra_delay_ms=float(entry.get("max_extra_delay_ms", 0.0)),
            src=_as_pidset(entry.get("src")),
            dst=_as_pidset(entry.get("dst")),
            msg_types=(
                None if entry.get("msg_types") is None else frozenset(entry["msg_types"])
            ),
            start_ms=_parse_num(entry.get("start_ms", 0.0)),
            end_ms=_parse_num(entry.get("end_ms", "inf")),
        )
    if kind == "partition":
        return PartitionRule(
            groups=tuple(frozenset(g) for g in entry["groups"]),
            start_ms=_parse_num(entry.get("start_ms", 0.0)),
            heal_ms=_parse_num(entry.get("heal_ms", "inf")),
            symmetric=bool(entry.get("symmetric", True)),
        )
    raise ConfigError(f"unknown fault rule kind {kind!r} in spec")


def _json_num(value: float) -> float | str:
    # ``math.inf`` is not valid JSON; encode it portably.
    return "inf" if math.isinf(value) else value


def _parse_num(value: float | int | str) -> float:
    if isinstance(value, str):
        return math.inf if value == "inf" else float(value)
    return float(value)


# -- named scenarios ----------------------------------------------------------


def standard_chaos_plan(num_replicas: int, f: int) -> FaultPlan:
    """The simulator's chaos schedule: the campaign's ``chaos`` base plan.

    20 % loss on every link until 4 s, a symmetric partition cutting the
    first ``f`` replicas off from 1 s to 2.5 s, and ``f`` crash/recover
    cycles on the trailing replicas from 0.5 s to 3 s (staggered by
    100 ms so their seal/unseal cycles interleave).
    """
    plan = FaultPlan().lossy_links(0.2, end_ms=4_000.0)
    plan.partition(range(f), range(f, num_replicas), at_ms=1_000.0, heal_ms=2_500.0)
    for i in range(f):
        plan.crash(
            num_replicas - 1 - i,
            at_ms=500.0 + 100.0 * i,
            recover_at_ms=3_000.0 + 100.0 * i,
        )
    return plan


def net_chaos_plans(n: int) -> dict[str, FaultPlan]:
    """The plans ``repro net-chaos`` plays, in wall-clock ms after boot.

    Replica ``n - 1`` is SIGKILLed at 2 s, and 5 % loss ends then: ``n -
    1`` live replicas of a 2f+1 protocol have no quorum slack.
    ``partition`` respawns it at 5 s and splits the cluster 2/2 from 8 s
    to 14 s; ``restart`` (the adversary run) only respawns it; ``catchup``
    keeps it down for 15 s, past the survivors' checkpoints.
    """

    def restart(down_ms: float) -> FaultPlan:
        return (
            FaultPlan()
            .lossy_links(0.05, end_ms=2_000.0)
            .crash(n - 1, at_ms=2_000.0, recover_at_ms=2_000.0 + down_ms)
        )

    return {
        "partition": restart(3_000.0).partition(
            range(2), range(2, n), at_ms=8_000.0, heal_ms=14_000.0
        ),
        "restart": restart(3_000.0),
        "catchup": restart(15_000.0),
    }
