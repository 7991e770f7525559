"""TAINT001-003: host-influenced data crossing the TEE trust boundary.

DAMYSUS's safety argument (paper Section 4) rests on one invariant: the
trusted Checker/Accumulator never certifies or adopts host-influenced
data it has not verified.  These rules check that invariant as a
whole-program taint analysis:

**Sources.**  Inside :mod:`repro.tee`, every parameter of a public
method on a ``TrustedComponent`` subclass (the ``tee_*`` boundary) is
host-controlled.  Outside it, every parameter annotated with a wire
message class (anything defining ``msg_type``) or named ``msg`` carries
attacker-deliverable bytes.

**Sinks.**  In-TEE: writes to protected state (``self._*``) and
certification payloads (``checkpoint_payload``, raw ``_sign``).
Host-side: the TEE's *adopting* interface (``tee_checkpoint``,
``tee_install_checkpoint``), which mutates the certified horizon.  The
per-step stamped emitters (``_create_unique_sign``,
``commitment_payload``) are exempt: a commitment attests *presentation
at a step* - the TEE refuses or re-verifies its content - whereas a
checkpoint certificate attests *certified state*.  Vote-path entry
points (``tee_sign``/``tee_prepare``/``tee_store``) verify internally
and raise ``TEERefusal``, so handing them raw wire data is the designed
protocol, not a violation.

**Propagation.**  Intra-function via :class:`FunctionFlow`
(assignments, calls, dataclass construction); interprocedural via sink
*summaries*: a helper whose parameter reaches a sink unverified becomes
a sink itself, so the finding fires at the call that feeds it tainted
data.  A path through a registered verifier
(:data:`~repro.analysis.dataflow.flow.VERIFIERS`) or a raising
equality guard is clean - see :mod:`.flow` for why ordering comparisons
(the PR-6 ``height <= ...`` bug) deliberately do not count.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator
from weakref import WeakKeyDictionary

from repro.analysis.dataflow.flow import VERIFIERS, CallSite, FunctionFlow
from repro.analysis.dataflow.graph import (
    ClassInfo,
    FunctionInfo,
    ProgramGraph,
    graph_for,
)
from repro.analysis.engine import (
    Finding,
    ProjectContext,
    ProjectRule,
    in_package,
    register,
)

#: Calls certifying data under the TEE's key: host influence must never
#: reach them unverified.
_CERT_SINK_SEEDS = ("checkpoint_payload", "_sign")

#: Host-side TEE calls that *adopt* state (move the certified horizon);
#: wire data must be host-verified before reaching them.
_ADOPTING_SINK_SEEDS = ("tee_checkpoint", "tee_install_checkpoint")

#: Stamped per-step emitters: exempt from becoming sinks (see module doc).
_EXEMPT = frozenset({"_create_unique_sign", "commitment_payload"}) | VERIFIERS

_TEE_PACKAGE = "repro.tee"


@dataclass
class SinkSpec:
    """One sink callable: which of its parameters must stay clean."""

    name: str
    #: Positional parameter names (to map call args to params); empty
    #: when unknown - then every position is checked.
    params: tuple[str, ...]
    #: Parameter names that reach the underlying sink; ``None`` = all.
    taint_params: frozenset[str] | None
    #: Human-readable chain for propagated sinks ("" for seeds).
    via: str = ""


def _site_tainted_roots(
    site: CallSite, tainted: set[str], spec: SinkSpec
) -> set[str]:
    """Tainted names flowing into sink positions of one call site."""
    hit: set[str] = set()
    for idx, roots in enumerate(site.arg_roots):
        name = spec.params[idx] if idx < len(spec.params) else None
        if spec.taint_params is None or name is None or name in spec.taint_params:
            hit |= roots & tainted
    for name, roots in site.kwarg_roots.items():
        if spec.taint_params is None or name in spec.taint_params:
            hit |= roots & tainted
    return hit


class _TaintAnalysis:
    """Shared whole-program taint pass; built once per project."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.graph = graph_for(project)
        self._flows: dict[str, FunctionFlow] = {}
        self.tee_findings: list[tuple[str, FunctionInfo, ast.AST, str]] = []
        self.host_findings: list[tuple[str, FunctionInfo, ast.AST, str]] = []
        self._run_tee()
        self._run_host()

    def flow(self, fn: FunctionInfo) -> FunctionFlow:
        cached = self._flows.get(fn.qualname)
        if cached is None:
            cached = FunctionFlow.build(fn)
            self._flows[fn.qualname] = cached
        return cached

    # -- sink summaries ----------------------------------------------------

    def _seed_spec(self, name: str) -> SinkSpec:
        """A seed sink with parameter names looked up in the project."""
        for candidates in (
            self.graph.methods_by_name.get(name, []),
            [
                fn
                for (_, fname), fn in self.graph.module_functions.items()
                if fname == name
            ],
        ):
            for fn in candidates:
                return SinkSpec(name, tuple(fn.params()), None)
        return SinkSpec(name, (), None)

    def _summarize(
        self, functions: list[FunctionInfo], seeds: tuple[str, ...]
    ) -> dict[str, SinkSpec]:
        """Fixpoint: helpers whose params reach a sink become sinks."""
        specs = {name: self._seed_spec(name) for name in seeds}
        changed = True
        while changed:
            changed = False
            for fn in functions:
                if fn.name in specs or fn.name in _EXEMPT:
                    continue
                flow = self.flow(fn)
                reaching: set[str] = set()
                for param in fn.params():
                    tainted = flow.tainted({param})
                    if any(
                        _site_tainted_roots(site, tainted, specs[site.name])
                        for site in flow.calls
                        if site.name in specs
                    ):
                        reaching.add(param)
                if reaching:
                    inner = next(
                        site.name for site in flow.calls if site.name in specs
                    )
                    specs[fn.name] = SinkSpec(
                        fn.name,
                        tuple(fn.params()),
                        frozenset(reaching),
                        via=f"{fn.label()} -> {inner}",
                    )
                    changed = True
        return specs

    def _state_summaries(
        self, functions: list[FunctionInfo]
    ) -> dict[str, SinkSpec]:
        """Helpers whose params reach a protected ``self._*`` write."""
        specs: dict[str, SinkSpec] = {}
        changed = True
        while changed:
            changed = False
            for fn in functions:
                if fn.name in specs or fn.name in _EXEMPT:
                    continue
                flow = self.flow(fn)
                reaching: set[str] = set()
                target = ""
                for param in fn.params():
                    tainted = flow.tainted({param})
                    for attr, roots, _node in flow.attr_writes:
                        if attr.startswith("_") and roots & tainted:
                            reaching.add(param)
                            target = f"self.{attr}"
                            break
                    else:
                        for site in flow.calls:
                            if site.name in specs and _site_tainted_roots(
                                site, tainted, specs[site.name]
                            ):
                                reaching.add(param)
                                target = specs[site.name].via or site.name
                                break
                if reaching:
                    specs[fn.name] = SinkSpec(
                        fn.name,
                        tuple(fn.params()),
                        frozenset(reaching),
                        via=f"{fn.label()} -> {target}",
                    )
                    changed = True
        return specs

    # -- in-TEE pass (TAINT001/TAINT002) -----------------------------------

    def _tee_entry_points(self) -> Iterator[FunctionInfo]:
        for cls in self.graph.classes.values():
            if not in_package(cls.module, _TEE_PACKAGE):
                continue
            trusted = any(
                ancestor.name == "TrustedComponent"
                for ancestor in self.graph.ancestors(cls)
            )
            for method in cls.methods.values():
                if method.name.startswith("tee_") or (
                    trusted
                    and not method.name.startswith("_")
                    and method.name != "__init__"
                    and method.params()
                ):
                    yield method

    def _run_tee(self) -> None:
        tee_functions = [
            fn
            for fn in list(self.graph.functions.values())
            + [
                m
                for cls in self.graph.classes.values()
                for m in cls.methods.values()
            ]
            if in_package(fn.module, _TEE_PACKAGE)
        ]
        cert_sinks = self._summarize(tee_functions, _CERT_SINK_SEEDS)
        state_sinks = self._state_summaries(
            [fn for fn in tee_functions if not fn.name.startswith("tee_")]
        )
        for entry in self._tee_entry_points():
            flow = self.flow(entry)
            tainted = flow.tainted(set(entry.params()))
            if not tainted:
                continue
            for attr, roots, node in flow.attr_writes:
                hit = roots & tainted
                if attr.startswith("_") and hit:
                    self.tee_findings.append((
                        "TAINT001",
                        entry,
                        node,
                        f"{entry.label()}: host-supplied {_names(hit)} "
                        f"written to protected state self.{attr} without "
                        "in-TEE verification",
                    ))
            for site in flow.calls:
                spec = state_sinks.get(site.name)
                if spec is not None:
                    hit = _site_tainted_roots(site, tainted, spec)
                    if hit:
                        self.tee_findings.append((
                            "TAINT001",
                            entry,
                            site.node,
                            f"{entry.label()}: host-supplied {_names(hit)} "
                            f"reach protected state via {spec.via}",
                        ))
                spec = cert_sinks.get(site.name)
                if spec is not None:
                    hit = _site_tainted_roots(site, tainted, spec)
                    if hit:
                        via = f" via {spec.via}" if spec.via else ""
                        self.tee_findings.append((
                            "TAINT002",
                            entry,
                            site.node,
                            f"{entry.label()}: host-supplied {_names(hit)} "
                            f"reach certification sink {site.name}(){via} "
                            "unverified",
                        ))

    # -- host-side pass (TAINT003) -----------------------------------------

    def _message_classes(self) -> set[str]:
        names: set[str] = set()
        for cls in self.graph.classes.values():
            for item in cls.node.body:
                targets: list[ast.expr] = []
                if isinstance(item, ast.Assign):
                    targets = item.targets
                elif isinstance(item, ast.AnnAssign):
                    targets = [item.target]
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name == "msg_type":
                        names.add(cls.name)
                    continue
                if any(
                    isinstance(t, ast.Name) and t.id == "msg_type"
                    for t in targets
                ):
                    names.add(cls.name)
        return names

    def _message_params(
        self, fn: FunctionInfo, message_classes: set[str]
    ) -> set[str]:
        sources: set[str] = set()
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in ("self", "cls"):
                continue
            if arg.arg in ("msg", "message"):
                sources.add(arg.arg)
                continue
            ann = arg.annotation
            label: str | None = None
            if isinstance(ann, ast.Name):
                label = ann.id
            elif isinstance(ann, ast.Attribute):
                label = ann.attr
            elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                label = ann.value.split(".")[-1]
            if label in message_classes:
                sources.add(arg.arg)
        return sources

    def _run_host(self) -> None:
        message_classes = self._message_classes()
        host_functions = [
            fn
            for fn in list(self.graph.functions.values())
            + [
                m
                for cls in self.graph.classes.values()
                for m in cls.methods.values()
            ]
            if not in_package(fn.module, _TEE_PACKAGE)
        ]
        sinks = self._summarize(host_functions, _ADOPTING_SINK_SEEDS)
        for fn in host_functions:
            sources = self._message_params(fn, message_classes)
            if not sources:
                continue
            flow = self.flow(fn)
            tainted = flow.tainted(sources)
            if not tainted:
                continue
            for site in flow.calls:
                spec = sinks.get(site.name)
                if spec is None:
                    continue
                hit = _site_tainted_roots(site, tainted, spec)
                if hit:
                    via = f" via {spec.via}" if spec.via else ""
                    self.host_findings.append((
                        "TAINT003",
                        fn,
                        site.node,
                        f"{fn.label()}: wire-message-derived {_names(hit)} "
                        f"passed to TEE adopting call {site.name}(){via} "
                        "without host-side verification",
                    ))


def _names(names: set[str]) -> str:
    joined = ", ".join(repr(n) for n in sorted(names))
    return f"value(s) {joined}"


_ANALYSIS_CACHE: "WeakKeyDictionary[ProjectContext, _TaintAnalysis]" = (
    WeakKeyDictionary()
)


def _analysis(project: ProjectContext) -> _TaintAnalysis:
    analysis = _ANALYSIS_CACHE.get(project)
    if analysis is None:
        analysis = _TaintAnalysis(project)
        _ANALYSIS_CACHE[project] = analysis
    return analysis


class _TaintRule(ProjectRule):
    """Common emission: filter the shared analysis by rule id."""

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = _analysis(project)
        for rule_id, fn, node, message in (
            analysis.tee_findings + analysis.host_findings
        ):
            if rule_id == self.rule_id:
                yield fn.ctx.finding(self, node, message)


@register
class TaintedProtectedStateRule(_TaintRule):
    """TAINT001: host data written to TEE-protected state unverified."""

    rule_id = "TAINT001"
    title = "host-influenced value stored in protected TEE state"
    hint = (
        "verify the value with a registered verifier (verify_checkpoint, "
        "_verify_commitment, ...) or derive it from certified internal "
        "state before storing it"
    )


@register
class TaintedCertificationRule(_TaintRule):
    """TAINT002: host data reaching a certification payload unverified."""

    rule_id = "TAINT002"
    title = "host-influenced value certified by the TEE"
    hint = (
        "a TEE certificate must only attest values derived in-TEE or "
        "checked by a registered verifier; equality guards count, "
        "ordering comparisons do not"
    )


@register
class UnverifiedAdoptionRule(_TaintRule):
    """TAINT003: wire data handed to the TEE's adopting interface."""

    rule_id = "TAINT003"
    title = "unverified wire data passed to a TEE adopting call"
    hint = (
        "host-verify wire data (verify_checkpoint / verify_decide_qc) "
        "before tee_checkpoint / tee_install_checkpoint; vote-path calls "
        "(tee_sign/tee_prepare/tee_store) self-verify and are exempt"
    )
