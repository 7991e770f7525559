"""Protocol registry: each protocol's replica class, and what it declares.

One row per evaluated protocol (the table in Section 8, "Implemented
protocols").  Every property Table 1 reports is read off the class: a
``CHECKER`` gives 2f+1 replicas and f+1 quorums (3f+1 and 2f+1 without),
the core phases are the declared ``PHASES`` (a chained protocol's
``DEPTH``), each costs a vote and a certificate step on top of the
new-view and the proposal, and the trusted components are the declared
``CHECKER`` and ``ACCUMULATOR``.  The normal-case message count per
decided block is :func:`repro.analysis.complexity.expected_messages`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.protocols.chained_damysus import ChainedDamysusReplica
from repro.protocols.chained_hotstuff import ChainedHotStuffReplica
from repro.protocols.damysus import DamysusReplica
from repro.protocols.damysus_a import DamysusAReplica
from repro.protocols.damysus_c import DamysusCReplica
from repro.protocols.fast_hotstuff import FastHotStuffReplica
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.pipeline import PipelinedReplica
from repro.protocols.replica import BaseReplica
from repro.protocols.signature_vote import SignatureVoteReplica
from repro.runtime.machine import Machine


@dataclass(frozen=True)
class ProtocolSpec:
    """Static properties of one protocol, as its replica class declares them."""

    replica_class: type[BaseReplica]

    @property
    def name(self) -> str:
        return self.replica_class.protocol_name

    @property
    def _k(self) -> int:
        """n = kf+1: a Checker lets 2f+1 replicas do the work of 3f+1."""
        return 3 if self.replica_class.CHECKER is None else 2

    def num_replicas(self, f: int) -> int:
        return self._k * f + 1

    def quorum(self, f: int) -> int:
        return (self._k - 1) * f + 1

    def max_faults(self, n: int) -> int:
        """Faults ``n`` replicas tolerate."""
        return (n - 1) // self._k

    @property
    def replicas_expr(self) -> str:
        return f"{self._k}f+1"

    @property
    def quorum_expr(self) -> str:
        return "2f+1" if self._k == 3 else "f+1"

    @property
    def chained(self) -> bool:
        return issubclass(self.replica_class, PipelinedReplica)

    @property
    def core_phases(self) -> int:
        cls = self.replica_class
        return cls.DEPTH if issubclass(cls, PipelinedReplica) else len(cls.PHASES)

    @property
    def comm_steps(self) -> int:
        """Communication steps per decided block: new-view, proposal, and
        a vote and a certificate per core phase."""
        return 2 * self.core_phases + 2

    @property
    def trusted_components(self) -> tuple[str, ...]:
        cls = self.replica_class
        declared = (("checker", cls.CHECKER), ("accumulator", cls.ACCUMULATOR))
        return tuple(name for name, component in declared if component is not None)


SPECS: dict[str, ProtocolSpec] = {
    cls.protocol_name: ProtocolSpec(cls)
    for cls in (
        HotStuffReplica,
        DamysusCReplica,
        DamysusAReplica,
        DamysusReplica,
        ChainedHotStuffReplica,
        ChainedDamysusReplica,
        # Not one of the paper's six evaluated protocols: the TEE-free
        # 2-phase baseline discussed in Section 2, used by the ablations.
        FastHotStuffReplica,
    )
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
#: protocols, not scaffolding, tied to the pseudocode line it departs from
#: (``docs/protocols.md`` renders this list).  The engines' own rules (the
#: pipelined engine's no-rejoin ``on_recovered``) are documented there.
HOOK_REASONS: dict[tuple[str, str], str] = {
    ("hotstuff", "_verify_qc"): (
        "also accepts compact (threshold-signature) certificates: Section 3's HotStuff form of "
        "the quorum check Fig 2a lines 25-26 make on a list of signatures"
    ),
    ("hotstuff", "_make_qc"): (
        "combines vote shares into one group signature under `compact_qcs`: Section 3's "
        "HotStuff form of Fig 2a's `C-combine` (lines 21-22 and 29-31)"
    ),
    ("fast-hotstuff", "on_view_entered"): (
        "a leader already holding the previous view's prepare QC proposes at once (happy "
        "path), where Fig 2a lines 39-47 always report to the leader first; `start()` and "
        "recovery take the new-view action only"
    ),
    ("chained-hotstuff", "on_view_timeout"): (
        "after the shared advance, sends the explicit new-view with the highest certificate: "
        "Fig 5a lines 46-51 without a checker (votes double as new-views on the happy path, "
        "and with no checker step to tell a timed-out view from a voted one the send cannot "
        "live in the new-view action as Chained-Damysus's does)"
    ),
}


def overridden_hooks(name: str) -> list[str]:
    """Chassis hooks protocol ``name`` overrides rather than inherits."""
    cls = SPECS[name].replica_class
    shared = (BaseReplica, SignatureVoteReplica, PipelinedReplica, Machine)
    return [
        hook
        for hook in CHASSIS_HOOKS
        if hasattr(cls, hook)
        and next(k for k in cls.__mro__ if hook in vars(k)) not in shared
    ]


def grid_markdown() -> str:
    """The protocol grid of ``docs/protocols.md``, read off the declarations."""
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
            engine = "pipelined votes (`PipelinedReplica`)"
        tees = [
            f"checker (`{cls.CHECKER.__name__}`)" if t == "checker" and cls.CHECKER else t
            for t in spec.trusted_components
        ]
        next_view = ", ".join(f"`{k.__name__}`" for k in cls.NEXT_VIEW_MSGS)
        phases = " → ".join(phase.name.lower() for phase in cls.PHASES)
        state = ", ".join(f"`{attr}`" for attr in (*cls.COLLECTORS, *cls.VIEW_SETS))
        lines.append(
            f"| `{name}` | {spec.replicas_expr} | {spec.quorum_expr} "
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
