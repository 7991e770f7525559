"""PURE001-002: transitive effect-purity of the sans-I/O layer.

Protocol machines must be deterministic, effect-returning state machines
(ROADMAP: the same machine runs under the simulator and the socket
runtime, and replay/equivalence checks depend on it).  The import-level
DET/ARCH lint rules fence *direct* use of wall clocks, RNGs and I/O in
restricted packages - but they cannot see a leak through a call chain:
an entry point calling a helper in an unrestricted module that reads
``time.time()`` passes every per-file rule.

These rules close that hole: walk the call graph from every ``Machine``
subclass entry point (``start``/``on_message``/``on_timer``/... plus
anything the class adds to ``ENTRY_POINTS``, plus the handlers its
``HANDLERS`` and ``SERVICE_HANDLERS`` tables name - ``dispatch`` and
``on_message`` reach those through the tables, which no call expression
shows) and flag reachable calls
into nondeterminism (PURE001: time, random, secrets, uuid, datetime) or
I/O (PURE002: files, sockets, subprocess, asyncio, env).  The traversal
deliberately does **not** descend into runtime-host modules
(``repro.runtime.asyncio_net``, ``repro.runtime.resilience``,
``repro.sim``...): the machine/runtime seam is exactly where effects
legitimately become real I/O, and crossing it would flag the by-design
boundary instead of a leak.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow.graph import (
    ClassInfo,
    FunctionInfo,
    ProgramGraph,
    graph_for,
    scoped_statements,
)
from repro.analysis.engine import (
    Finding,
    ProjectContext,
    ProjectRule,
    class_attr_values,
    dotted_name,
    in_package,
    register,
)

#: Entry points every Machine exposes; classes extend via ENTRY_POINTS.
_DEFAULT_ENTRY_POINTS = {"start", "on_message", "on_messages", "on_timer", "crash", "recover"}

#: Class attributes whose string constants name entry points: the
#: explicit list, and the handler tables ``dispatch`` / ``on_message``
#: route through (strings that name no method are ignored).
_ENTRY_TABLES = ("ENTRY_POINTS", "HANDLERS", "SERVICE_HANDLERS")

#: Packages/modules the walk never descends into: the hosts that
#: legitimately interpret effects as real I/O, plus tooling.
_HOST_PREFIXES = (
    "repro.sim",
    "repro.bench",
    "repro.analysis",
    "repro.cli",
    "repro.runtime.asyncio_net",
    "repro.runtime.resilience",
    "repro.runtime.sim",
)

#: Module roots whose every call is nondeterministic.
_NONDET_MODULES = {"random", "secrets", "uuid"}

#: Qualified (module-ish, attr) tails that read entropy or clocks.
_NONDET_TAILS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
    ("os", "urandom"),
    ("os", "getrandom"),
}

#: Module roots whose every call is I/O.
_IO_MODULES = {
    "socket", "subprocess", "shutil", "asyncio", "selectors", "signal",
    "tempfile", "glob", "http", "urllib", "requests",
}

#: Bare builtins performing I/O.
_IO_BUILTINS = {"open", "print", "input", "breakpoint"}

#: ``os.*`` / ``sys.*`` attrs that touch the outside world.
_OS_IO_ATTRS = {
    "replace", "remove", "rename", "unlink", "mkdir", "makedirs", "rmdir",
    "open", "write", "read", "close", "kill", "system", "popen", "fsync",
    "listdir", "stat", "getenv", "putenv", "environ",
}

#: Path-like methods that hit the filesystem, on any receiver.
_PATH_IO_ATTRS = {
    "read_text", "write_text", "read_bytes", "write_bytes", "touch",
}


def _banned_call(call: ast.Call) -> tuple[str, str] | None:
    """(rule_id, description) when the call is an effect, else ``None``."""
    name = dotted_name(call.func)
    if name is None:
        if isinstance(call.func, ast.Attribute):
            if call.func.attr in _PATH_IO_ATTRS:
                return ("PURE002", f"{call.func.attr}()")
        return None
    if name == "random.Random" and (call.args or call.keywords):
        # Explicitly seeded generator: deterministic by construction
        # (RngStream's backing store).  Argless Random() seeds from the
        # OS and stays banned.
        return None
    parts = name.split(".")
    if parts[0] in _NONDET_MODULES:
        return ("PURE001", f"{name}()")
    if len(parts) >= 2 and (parts[-2], parts[-1]) in _NONDET_TAILS:
        return ("PURE001", f"{name}()")
    if parts[0] in _IO_MODULES:
        return ("PURE002", f"{name}()")
    if len(parts) == 1 and parts[0] in _IO_BUILTINS:
        return ("PURE002", f"{name}()")
    if parts[0] in ("os", "sys") and parts[-1] in _OS_IO_ATTRS:
        return ("PURE002", f"{name}()")
    if parts[-1] in _PATH_IO_ATTRS:
        return ("PURE002", f"{name}()")
    return None


def _is_host_module(module: str) -> bool:
    return any(in_package(module, prefix) for prefix in _HOST_PREFIXES)


class _PurityWalk:
    """BFS over the call graph from Machine entry points."""

    def __init__(self, project: ProjectContext) -> None:
        self.graph: ProgramGraph = graph_for(project)
        #: (rule_id, FunctionInfo, call node, chain string), deduped.
        self.findings: list[tuple[str, FunctionInfo, ast.Call, str]] = []
        self._seen_sites: set[tuple[str, str, int]] = set()
        self._visited: set[str] = set()
        for machine_cls in self._machine_classes():
            for entry in self._entries(machine_cls):
                self._walk(entry, f"{machine_cls.name}.{entry.name}")

    # -- entry discovery ---------------------------------------------------

    def _machine_classes(self) -> list[ClassInfo]:
        # A replica's components serve SERVICE_HANDLERS rows of their own.
        return [
            cls
            for cls in self.graph.classes.values()
            if not _is_host_module(cls.module)
            and any(
                a.name == "Machine" or any(class_attr_values(a.node, ("SERVICE_HANDLERS",)))
                for a in self.graph.ancestors(cls)
            )
        ]

    def _entry_names(self, cls: ClassInfo) -> set[str]:
        names = set(_DEFAULT_ENTRY_POINTS)
        for ancestor in self.graph.ancestors(cls):
            for value in class_attr_values(ancestor.node, _ENTRY_TABLES):
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        names.add(sub.value)
        return names

    def _entries(self, cls: ClassInfo) -> list[FunctionInfo]:
        out: list[FunctionInfo] = []
        for name in sorted(self._entry_names(cls)):
            for ancestor in self.graph.ancestors(cls):
                if name in ancestor.methods:
                    out.append(ancestor.methods[name])
                    break
        return out

    # -- traversal ---------------------------------------------------------

    def _walk(self, entry: FunctionInfo, entry_label: str) -> None:
        queue: list[tuple[FunctionInfo, str]] = [(entry, entry_label)]
        while queue:
            fn, chain = queue.pop(0)
            if fn.qualname in self._visited:
                continue
            self._visited.add(fn.qualname)
            for node in scoped_statements(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                banned = _banned_call(node)
                if banned is not None:
                    rule_id, what = banned
                    key = (rule_id, fn.ctx.rel, node.lineno)
                    if key not in self._seen_sites:
                        self._seen_sites.add(key)
                        self.findings.append((
                            rule_id,
                            fn,
                            node,
                            f"{what} reachable from machine entry point "
                            f"{chain}",
                        ))
                    continue
                for callee in self.graph.resolve_call(node, fn):
                    if _is_host_module(callee.module):
                        continue
                    if callee.qualname not in self._visited:
                        queue.append((callee, f"{chain} -> {callee.label()}"))


_WALK_ATTR = "_repro_purity_walk"


def _walk_for(project: ProjectContext) -> _PurityWalk:
    walk = getattr(project, _WALK_ATTR, None)
    if walk is None:
        walk = _PurityWalk(project)
        setattr(project, _WALK_ATTR, walk)
    return walk


class _PureRule(ProjectRule):
    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for rule_id, fn, node, message in _walk_for(project).findings:
            if rule_id == self.rule_id:
                yield fn.ctx.finding(self, node, message)


@register
class ReachableNondeterminismRule(_PureRule):
    """PURE001: nondeterminism reachable from a Machine entry point."""

    rule_id = "PURE001"
    title = "nondeterminism reachable from a protocol machine"
    hint = (
        "machines must stay deterministic: take time from machine.clock "
        "and randomness from a seeded RngStream, or move the call behind "
        "the runtime boundary"
    )


@register
class ReachableIoRule(_PureRule):
    """PURE002: I/O reachable from a Machine entry point."""

    rule_id = "PURE002"
    title = "I/O reachable from a protocol machine"
    hint = (
        "machines communicate only through returned effects; perform "
        "file/socket work in the runtime host that interprets them"
    )
