"""Message-exhaustiveness rules.

A message type that no protocol dispatches is either dead weight or - far
worse - something a replica silently drops on the floor.  These rules
cross-reference the message classes declared in :mod:`repro.core.messages`
(and protocol-local ones) against the handler tables the protocol
package declares - each protocol's ``HANDLERS`` and the
``SERVICE_HANDLERS`` of the replica chassis and the client - and nothing
else: an ``isinstance`` check is not a dispatch.  A third rule checks
that ``match`` statements over :class:`repro.core.phases.Phase` cover
every phase.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import (
    FileContext,
    Finding,
    ProjectContext,
    ProjectRule,
    Rule,
    class_attr_values,
    in_package,
    register,
)

_MESSAGES_MODULE = "repro.core.messages"
_PROTOCOLS_PACKAGE = "repro.protocols"
_SENDER_PACKAGES = ("repro.protocols", "repro.adversary")
_PHASES_MODULE = "repro.core.phases"

#: Fallback when the project under lint does not include core/phases.py.
_DEFAULT_PHASES = ("NEW_VIEW", "PREPARE", "PRECOMMIT", "COMMIT", "DECIDE")


def _declares_msg_type(node: ast.ClassDef) -> bool:
    """True for classes carrying a ``msg_type`` attribute or property."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "msg_type" for t in stmt.targets
        ):
            return True
        if isinstance(stmt, ast.AnnAssign) and (
            isinstance(stmt.target, ast.Name) and stmt.target.id == "msg_type"
        ):
            return True
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "msg_type":
            return True
    return False


def _message_classes(project: ProjectContext) -> dict[str, tuple[FileContext, ast.ClassDef]]:
    """Message classes by name: core/messages.py plus protocol-local ones."""
    declared: dict[str, tuple[FileContext, ast.ClassDef]] = {}
    for ctx in project.files:
        if ctx.module != _MESSAGES_MODULE and not in_package(
            ctx.module, _PROTOCOLS_PACKAGE
        ):
            continue
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and _declares_msg_type(node):
                declared[node.name] = (ctx, node)
    return declared


#: Class-level tables handlers are declared in (see ``BaseReplica.HANDLERS``
#: and ``Machine.SERVICE_HANDLERS``): keys are message classes, or
#: ``(CommitmentMsg, kind)`` tuples.
_HANDLER_TABLES = ("HANDLERS", "SERVICE_HANDLERS")


def _names_in(expr: ast.expr) -> Iterator[str]:
    """Class names in a type spec: ``A``, ``mod.A``, or a tuple of either."""
    for node in expr.elts if isinstance(expr, ast.Tuple) else [expr]:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _handled_classes(project: ProjectContext) -> set[str]:
    """Class names the protocol modules' declared handler tables key on."""
    handled: set[str] = set()
    for ctx in project.in_package(_PROTOCOLS_PACKAGE):
        for node in ast.walk(ctx.tree):
            match node:
                case ast.ClassDef():
                    for table in class_attr_values(node, _HANDLER_TABLES):
                        match table:
                            case ast.Dict(keys=keys):
                                # A ``**Base.HANDLERS`` spread has no key.
                                for key in keys:
                                    if key is not None:
                                        handled.update(_names_in(key))
    return handled


@register
class UnhandledMessageTypeRule(ProjectRule):
    """MSG001: a declared message type no protocol dispatches."""

    rule_id = "MSG001"
    title = "message type without a dispatch handler"
    hint = (
        "add it to the owning protocol's HANDLERS table (view-less traffic: "
        "a SERVICE_HANDLERS table), or delete the dead message type"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        declared = _message_classes(project)
        if not declared or not project.in_package(_PROTOCOLS_PACKAGE):
            return
        handled = _handled_classes(project)
        for name, (ctx, node) in sorted(declared.items()):
            if name not in handled:
                yield ctx.finding(
                    self,
                    node,
                    f"message type {name!r} is never dispatched by any protocol",
                )


@register
class SentButUnhandledRule(ProjectRule):
    """MSG002: a message constructed for sending that nothing dispatches."""

    rule_id = "MSG002"
    title = "message sent without a receiver-side handler"
    hint = (
        "add it to a HANDLERS or SERVICE_HANDLERS table before sending, or the "
        "message is dropped silently"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        declared = _message_classes(project)
        if not declared or not project.in_package(_PROTOCOLS_PACKAGE):
            return
        handled = _handled_classes(project)
        for ctx in project.files:
            if not any(in_package(ctx.module, pkg) for pkg in _SENDER_PACKAGES):
                continue
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in declared
                    and node.func.id not in handled
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"constructs {node.func.id!r}, which no protocol dispatches",
                    )


def _phase_members(project: ProjectContext) -> set[str]:
    ctx = project.by_module.get(_PHASES_MODULE)
    if ctx is None:
        return set(_DEFAULT_PHASES)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == "Phase":
            return {
                target.id
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                for target in stmt.targets
                if isinstance(target, ast.Name)
            }
    return set(_DEFAULT_PHASES)


@register
class NonExhaustivePhaseMatchRule(ProjectRule):
    """MSG003: a ``match`` over Phase missing members and lacking ``case _``."""

    rule_id = "MSG003"
    title = "non-exhaustive Phase match"
    hint = "cover every Phase member or add a `case _` that rejects explicitly"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        members = _phase_members(project)
        for ctx in project.files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Match):
                    continue
                covered: set[str] = set()
                saw_phase = False
                has_wildcard = False
                for case in node.cases:
                    patterns = (
                        case.pattern.patterns
                        if isinstance(case.pattern, ast.MatchOr)
                        else [case.pattern]
                    )
                    for pattern in patterns:
                        if (
                            isinstance(pattern, ast.MatchAs)
                            and pattern.pattern is None
                            and case.guard is None
                        ):
                            has_wildcard = True
                        elif isinstance(pattern, ast.MatchValue) and isinstance(
                            pattern.value, ast.Attribute
                        ):
                            value = pattern.value
                            if (
                                isinstance(value.value, ast.Name)
                                and value.value.id == "Phase"
                            ):
                                saw_phase = True
                                covered.add(value.attr)
                if saw_phase and not has_wildcard and covered != members:
                    missing = ", ".join(sorted(members - covered))
                    yield ctx.finding(
                        self,
                        node,
                        f"match over Phase does not cover: {missing}",
                    )
