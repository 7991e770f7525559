"""Architecture layering rules.

The sans-I/O refactor split the codebase into layers: ``repro.core``
(pure protocol data + interfaces), ``repro.tee`` (trusted components),
``repro.protocols`` (effect-emitting machines) and ``repro.runtime``
(adapters that interpret effects on a host).  The protocol layers must
stay host-agnostic: the same machine runs on the discrete-event
simulator and on asyncio sockets precisely because it imports neither.
These rules pin that property - one rule per layer, so a violation
names the layer whose contract broke.

Forbidden targets are the two hosts: the simulator package
(``repro.sim``) and the socket runtime (``repro.runtime.asyncio_net``).
``repro.runtime.effects`` / ``repro.runtime.machine`` are *not*
forbidden - they are the host-agnostic vocabulary the layers speak.

A fourth rule keeps a moved module from leaving its old path behind as
a forwarding layer: a module that defines nothing must not exist.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, in_package, register

#: Host packages/modules the protocol layers must never import.
FORBIDDEN_TARGETS = ("repro.sim", "repro.runtime.asyncio_net")


def _targets(module: str) -> bool:
    return any(
        module == target or module.startswith(target + ".")
        for target in FORBIDDEN_TARGETS
    )


def _resolve_relative(ctx: FileContext, node: ast.ImportFrom) -> str | None:
    """Absolute module an ``ImportFrom`` refers to (handles ``from . import``)."""
    if node.level == 0:
        return node.module
    # ctx.module of a package's __init__ is the package itself; lint
    # targets are files, so ctx.module always names the importing module.
    parts = ctx.module.split(".")
    if len(parts) < node.level:
        return node.module
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _forbidden_imports(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _targets(alias.name):
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = _resolve_relative(ctx, node)
            if module is None:
                continue
            if _targets(module):
                yield node, module
            else:
                # ``from repro.runtime import asyncio_net`` imports the
                # submodule even though the target is the parent package.
                for alias in node.names:
                    if _targets(f"{module}.{alias.name}"):
                        yield node, f"{module}.{alias.name}"


class _LayerImportRule(Rule):
    """Shared machinery: flag forbidden host imports inside one layer."""

    layer = ""  # package the rule guards, e.g. "repro.core"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_package(ctx.module, self.layer):
            return
        for node, module in _forbidden_imports(ctx):
            yield ctx.finding(
                self, node, f"{self.layer} imports host module {module!r}"
            )


@register
class CoreLayerRule(_LayerImportRule):
    """ARCH001: ``repro.core`` must stay host-agnostic."""

    rule_id = "ARCH001"
    title = "core layer imports a runtime host"
    layer = "repro.core"
    hint = (
        "repro.core is pure protocol data and interfaces; depend on "
        "repro.core.clock.Clock instead of a concrete host, and report "
        "to a host through a machine's effects"
    )


@register
class TeeLayerRule(_LayerImportRule):
    """ARCH002: ``repro.tee`` must stay host-agnostic."""

    rule_id = "ARCH002"
    title = "TEE layer imports a runtime host"
    layer = "repro.tee"
    hint = (
        "trusted components take values and return certificates; any "
        "clock or scheduling concern belongs to the caller's runtime"
    )


@register
class ProtocolLayerRule(_LayerImportRule):
    """ARCH003: ``repro.protocols`` must stay host-agnostic."""

    rule_id = "ARCH003"
    title = "protocol layer imports a runtime host"
    layer = "repro.protocols"
    hint = (
        "protocol machines emit repro.runtime.effects and read time via "
        "their Clock; hosts (repro.sim, repro.runtime.asyncio_net) "
        "interpret the effects"
    )


def _assigns_all(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


@register
class ReExportModuleRule(Rule):
    """ARCH004: a module that is nothing but re-exports."""

    rule_id = "ARCH004"
    title = "module only forwards names defined elsewhere"
    hint = (
        "import the names from the module that defines them and delete "
        "this one; a package's public face belongs in its __init__.py"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_package(ctx.module, "repro") or ctx.path.name == "__init__.py":
            return
        imports = []
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"):
                    imports.append(stmt)
            elif not (
                _assigns_all(stmt)
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            ):
                return
        if imports:
            yield ctx.finding(
                self, imports[0], f"{ctx.module} defines nothing: its body is only imports"
            )
