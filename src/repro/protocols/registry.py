"""Protocol registry: names, replica factories and analytic properties.

One row per evaluated protocol (the table in Section 8, "Implemented
protocols"), carrying the replica class plus the closed-form quantities
Table 1 reports: replica count, quorum size, core phases and
communication steps.  The normal-case message count per decided block
is :func:`repro.analysis.complexity.expected_messages`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Type

from repro.errors import ConfigError
from repro.protocols.chained_damysus import ChainedDamysusReplica
from repro.protocols.chained_hotstuff import ChainedHotStuffReplica
from repro.protocols.damysus import DamysusReplica
from repro.protocols.damysus_a import DamysusAReplica
from repro.protocols.damysus_c import DamysusCReplica
from repro.protocols.fast_hotstuff import FastHotStuffReplica
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.replica import BaseReplica
from repro.protocols.signature_vote import SignatureVoteReplica
from repro.runtime.machine import Machine


@dataclass(frozen=True)
class ProtocolSpec:
    """Static properties of one protocol."""

    name: str
    replica_class: Type[BaseReplica]
    num_replicas: Callable[[int], int]  # N as a function of f
    quorum: Callable[[int], int]  # quorum size as a function of f
    core_phases: int
    comm_steps: int  # communication steps per decided block
    chained: bool
    trusted_components: tuple[str, ...]
    max_faults: Callable[[int], int]  # tolerated faults for N replicas


def _n_3f1(f: int) -> int:
    """3f+1"""
    return 3 * f + 1


def _n_2f1(f: int) -> int:
    """2f+1"""
    return 2 * f + 1


SPECS: dict[str, ProtocolSpec] = {
    "hotstuff": ProtocolSpec(
        name="hotstuff",
        replica_class=HotStuffReplica,
        num_replicas=_n_3f1,
        quorum=lambda f: 2 * f + 1,
        core_phases=3,
        comm_steps=8,
        chained=False,
        trusted_components=(),
        max_faults=lambda n: (n - 1) // 3,
    ),
    "damysus-c": ProtocolSpec(
        name="damysus-c",
        replica_class=DamysusCReplica,
        num_replicas=_n_2f1,
        quorum=lambda f: f + 1,
        core_phases=3,
        comm_steps=8,
        chained=False,
        trusted_components=("checker",),
        max_faults=lambda n: (n - 1) // 2,
    ),
    "damysus-a": ProtocolSpec(
        name="damysus-a",
        replica_class=DamysusAReplica,
        num_replicas=_n_3f1,
        quorum=lambda f: 2 * f + 1,
        core_phases=2,
        comm_steps=6,
        chained=False,
        trusted_components=("accumulator",),
        max_faults=lambda n: (n - 1) // 3,
    ),
    "damysus": ProtocolSpec(
        name="damysus",
        replica_class=DamysusReplica,
        num_replicas=_n_2f1,
        quorum=lambda f: f + 1,
        core_phases=2,
        comm_steps=6,
        chained=False,
        trusted_components=("checker", "accumulator"),
        max_faults=lambda n: (n - 1) // 2,
    ),
    "chained-hotstuff": ProtocolSpec(
        name="chained-hotstuff",
        replica_class=ChainedHotStuffReplica,
        num_replicas=_n_3f1,
        quorum=lambda f: 2 * f + 1,
        core_phases=3,
        comm_steps=8,
        chained=True,
        trusted_components=(),
        max_faults=lambda n: (n - 1) // 3,
    ),
    "chained-damysus": ProtocolSpec(
        name="chained-damysus",
        replica_class=ChainedDamysusReplica,
        num_replicas=_n_2f1,
        quorum=lambda f: f + 1,
        core_phases=2,
        comm_steps=6,
        chained=True,
        trusted_components=("checker", "accumulator"),
        max_faults=lambda n: (n - 1) // 2,
    ),
    # Not one of the paper's six evaluated protocols: the TEE-free 2-phase
    # baseline discussed in Section 2, used by the ablation benchmarks.
    "fast-hotstuff": ProtocolSpec(
        name="fast-hotstuff",
        replica_class=FastHotStuffReplica,
        num_replicas=_n_3f1,
        quorum=lambda f: 2 * f + 1,
        core_phases=2,
        comm_steps=6,
        chained=False,
        trusted_components=(),
        max_faults=lambda n: (n - 1) // 3,
    ),
}

#: Evaluation order used in the paper's Section 8 table.
PROTOCOL_ORDER = [
    "hotstuff",
    "damysus-c",
    "damysus-a",
    "damysus",
    "chained-hotstuff",
    "chained-damysus",
]


#: The chassis hooks a protocol may override instead of declaring a value.
#: The first three would re-introduce per-file scaffolding and stay unused.
CHASSIS_HOOKS = (
    "dispatch", "on_stale", "prune_state",
    "start", "on_view_entered", "on_view_timeout", "on_recovered",
    "message_view", "_verify_qc", "_make_qc",
)

#: Why each override exists: a genuine behavioural difference between the
#: protocols, not scaffolding (``docs/protocols.md`` renders this list).
HOOK_REASONS: dict[tuple[str, str], str] = {
    ("hotstuff", "_verify_qc"): "also accepts compact (threshold-signature) certificates",
    ("hotstuff", "_make_qc"): "combines vote shares into one group signature under `compact_qcs`",
    ("fast-hotstuff", "on_view_entered"): (
        "a leader already holding the previous view's prepare QC proposes at once (happy "
        "path); `start()` and recovery take the new-view action only"
    ),
    ("chained-hotstuff", "on_view_timeout"): (
        "after the shared advance, sends the explicit new-view with the highest certificate "
        "(votes double as new-views on the happy path; without a checker there is no step "
        "to tell a timed-out view from a voted one, so the send cannot live in the new-view "
        "action as Chained-Damysus's does)"
    ),
    ("chained-hotstuff", "on_recovered"): (
        "no rejoin action: a restarted leader forgot what it proposed, re-proposing could "
        "equivocate; it rejoins on the next proposal or timeout"
    ),
    ("chained-damysus", "on_recovered"): (
        "no rejoin action: rejoins on the next proposal or timeout (the checker refuses a "
        "second prepare anyway)"
    ),
}


def overridden_hooks(name: str) -> list[str]:
    """Chassis hooks protocol ``name`` overrides rather than inherits."""
    cls = SPECS[name].replica_class
    shared = (BaseReplica, SignatureVoteReplica, Machine)
    return [
        hook
        for hook in CHASSIS_HOOKS
        if hasattr(cls, hook)
        and next(k for k in cls.__mro__ if hook in vars(k)) not in shared
    ]


def grid_markdown() -> str:
    """The protocol grid of ``docs/protocols.md``, read off the declarations."""
    quorum_expr = {(3, 5): "2f+1", (2, 3): "f+1"}
    lines = [
        "| protocol | n(f) | quorum | declared phases | vote engine | trusted components "
        "| per-view state | prune slack | routed to view+1 |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for name, spec in SPECS.items():
        cls = spec.replica_class
        if issubclass(cls, SignatureVoteReplica):
            engine = "signature votes (`SignatureVoteReplica`)"
        elif issubclass(cls, DamysusReplica):
            engine = "commitment votes (`DamysusReplica._combine` / `_store_and_vote`)"
        else:
            engine = "own pipelined handlers"
        tees = [
            f"checker (`{cls.CHECKER.__name__}`)" if t == "checker" and cls.CHECKER else t
            for t in spec.trusted_components
        ]
        next_view = ", ".join(f"`{k.__name__}`" for k in cls.NEXT_VIEW_MSGS)
        phases = " → ".join(phase.name.lower() for phase in cls.PHASES)
        state = ", ".join(f"`{attr}`" for attr in (*cls.COLLECTORS, *cls.VIEW_SETS))
        lines.append(
            f"| `{name}` | {spec.num_replicas.__doc__} "
            f"| {quorum_expr[spec.quorum(1), spec.quorum(2)]} "
            f"| {phases or 'one generic phase, pipelined over views'} ({spec.core_phases}) "
            f"| {engine} | {', '.join(tees) or '-'} | {state} | {cls.PRUNE_SLACK} "
            f"| {next_view or '-'} |"
        )
    lines += ["", "Overridden chassis hooks, and why each is a real behavioural difference:", ""]
    for name in SPECS:
        for hook in overridden_hooks(name):
            lines.append(f"- `{name}` `{hook}`: {HOOK_REASONS[name, hook]}.")
    return "\n".join(lines)


def get_spec(name: str) -> ProtocolSpec:
    """Look up a protocol by name, raising a helpful error if unknown."""
    try:
        return SPECS[name]
    except KeyError:
        known = ", ".join(sorted(SPECS))
        raise ConfigError(f"unknown protocol {name!r}; known: {known}") from None
