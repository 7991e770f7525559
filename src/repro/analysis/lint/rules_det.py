"""Simulation-determinism rules.

The chaos harness and every regression baseline assume a run is a pure
function of its :class:`~repro.config.SystemConfig` (seed included).
Ambient entropy - ``random``, ``secrets``, ``os.urandom``, wall-clock
time, ``uuid``, or CPython address/hash salts - breaks that silently.
All randomness must flow through :class:`repro.core.rng.RngStream`
streams derived from the master seed; all time through the event loop's
virtual clock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
    in_package,
    register,
)

#: Packages whose behaviour must be a pure function of the config.
RESTRICTED_PACKAGES = (
    "repro.sim",
    "repro.protocols",
    "repro.tee",
    "repro.adversary",
    "repro.analysis",
    "repro.core",
    "repro.crypto",
    "repro.runtime",
)

#: The runtime host modules that legitimately run on wall-clock time,
#: real sockets and real processes: the asyncio host plus the two
#: resilience modules that orchestrate OS processes (the supervisor and
#: the net-chaos scenario).  Everything else under ``repro.runtime`` -
#: the effect algebra, the machine base class, the simulator adapter,
#: and the *pure* resilience modules (fault decider, durable sealer) -
#: must stay a pure function of the config.
_WALL_CLOCK_MODULES = (
    "repro.runtime.asyncio_net",
    "repro.runtime.resilience.supervisor",
    "repro.runtime.resilience.netchaos",
)

#: The module allowed to touch ``random``: the seeded-stream wrapper.
_RNG_MODULES = ("repro.core.rng",)

_BANNED_MODULES = {"random", "secrets", "uuid", "time", "datetime"}
_BANNED_OS_IMPORTS = {"urandom", "getrandom"}

#: Qualified calls banned even when only the parent module was imported
#: elsewhere (matched on the last two dotted components).
_BANNED_QUALIFIED = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid3",
    "uuid.uuid4",
    "uuid.uuid5",
}

#: Bare names that only exist via ``from <entropy module> import ...``.
_BANNED_BARE_CALLS = {
    "urandom",
    "getrandom",
    "uuid1",
    "uuid4",
    "token_bytes",
    "token_hex",
    "getrandbits",
}


def restricted(ctx: FileContext) -> bool:
    if ctx.module in _RNG_MODULES or ctx.module in _WALL_CLOCK_MODULES:
        return False
    return any(in_package(ctx.module, pkg) for pkg in RESTRICTED_PACKAGES)


@register
class NondeterministicImportRule(Rule):
    """DET001: importing an ambient-entropy or wall-clock module."""

    rule_id = "DET001"
    title = "nondeterministic import in simulation code"
    hint = (
        "draw randomness from repro.core.rng.RngStream (seed-derived) and "
        "time from the simulator's virtual clock"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not restricted(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _BANNED_MODULES:
                        yield ctx.finding(
                            self, node, f"import of nondeterministic module {top!r}"
                        )
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                top = node.module.split(".")[0]
                if top in _BANNED_MODULES:
                    yield ctx.finding(
                        self, node, f"import from nondeterministic module {top!r}"
                    )
                elif top == "os":
                    for alias in node.names:
                        if alias.name in _BANNED_OS_IMPORTS:
                            yield ctx.finding(
                                self, node, f"import of os.{alias.name}"
                            )


@register
class NondeterministicCallRule(Rule):
    """DET002: calling an ambient-entropy or wall-clock function."""

    rule_id = "DET002"
    title = "nondeterministic call in simulation code"
    hint = (
        "use an RngStream for randomness and sim.now for time; both are "
        "pure functions of the master seed"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not restricted(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if func is None:
                continue
            parts = func.split(".")
            if parts[0] in {"random", "secrets"} and len(parts) > 1:
                yield ctx.finding(self, node, f"call to {func}()")
            elif len(parts) >= 2 and ".".join(parts[-2:]) in _BANNED_QUALIFIED:
                yield ctx.finding(self, node, f"call to {func}()")
            elif len(parts) == 1 and parts[0] in _BANNED_BARE_CALLS:
                yield ctx.finding(self, node, f"call to {func}()")


@register
class AddressDependentValueRule(Rule):
    """DET003: ``id()`` / builtin ``hash()`` feeding simulation state.

    ``id()`` is a memory address and ``hash()`` of strings/bytes is
    salted per interpreter run; deriving keys, seeds or orderings from
    either makes identically-seeded runs diverge bit-for-bit.
    """

    rule_id = "DET003"
    title = "address- or salt-dependent value in simulation code"
    hint = (
        "derive identifiers from stable fields (scheme.name, signer ids, "
        "explicit counters) instead of id()/hash()"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not restricted(ctx):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"id", "hash"}
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"builtin {node.func.id}() varies across interpreter runs",
                )
