"""TEE trust-boundary rules (paper Section 4.1).

DAMYSUS's safety argument assumes trusted state is reachable only
through the Checker/Accumulator interface (``TEEsign``, ``TEEprepare``,
``TEEstore``, ``TEEstart``, ``TEEaccum``, ``TEEfinalize``).  Host code
that reads a component's private attributes, mutates its state, or mints
signatures under a TEE signer id silently voids that argument, so these
rules fence :mod:`repro.tee` (and the key-holding :mod:`repro.crypto`)
off from the rest of the tree.
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
    receiver_tokens,
    register,
)

#: Packages whose *internals* legitimately touch trusted private state.
_TRUSTED_PACKAGES = ("repro.tee", "repro.crypto")

#: Names under which host code typically holds a trusted component.
_COMPONENT_NAMES = {"checker", "accumulator", "acc_service", "tee"}

#: Private members of :class:`repro.tee.base.TrustedComponent` and its
#: subclasses; accessing these on *any* receiver outside the trusted
#: packages is a violation even if the variable is not named "checker".
_TRUSTED_PRIVATE = {
    "_signer",
    "_scheme",
    "_directory",
    "_sign",
    "_verify",
    "_count_call",
    "_prepv",
    "_preph",
    "_step",
    "_lockv",
    "_lockh",
    "_ckpt_counter",
    "_ckpt_height",
    "_ckpt_hash",
    "_ckpt_root",
    "_create_unique_sign",
    "_verify_commitment",
    "_verify_accumulator",
    "_verify_chained_certificate",
    "_check_new_view_commitment",
    "_sign_working",
    "_verify_working",
    "_check_report",
}


def _outside_trusted(ctx: FileContext) -> bool:
    return not any(in_package(ctx.module, pkg) for pkg in _TRUSTED_PACKAGES)


def _mentions_component(node: ast.AST) -> bool:
    return bool(receiver_tokens(node) & _COMPONENT_NAMES)


def _is_self_like(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id in {"self", "cls"}:
        return True
    # ``super().x`` resolves to the instance's own hierarchy.
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


@register
class PrivateTrustedAttributeRule(Rule):
    """TEE001: private attribute access on a trusted component."""

    rule_id = "TEE001"
    title = "private access across the TEE boundary"
    hint = (
        "use the public TEE interface (tee_sign/tee_prepare/tee_store/"
        "tee_start/tee_accum) or a read-only property instead of private state"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not _outside_trusted(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            if _mentions_component(node.value):
                yield ctx.finding(
                    self,
                    node,
                    f"access to private attribute {attr!r} of a trusted component",
                )
            elif attr in _TRUSTED_PRIVATE and not _is_self_like(node.value):
                yield ctx.finding(
                    self,
                    node,
                    f"access to TrustedComponent-private member {attr!r} "
                    "outside repro.tee",
                )


@register
class ForgedTeeSignatureRule(Rule):
    """TEE002: minting signatures under a TEE signer identity."""

    rule_id = "TEE002"
    title = "host code forging TEE signatures"
    hint = (
        "only trusted components may sign as tee_signer_id(i); obtain "
        "certificates via the TEE interface instead"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not _outside_trusted(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = dotted_name(node.func)
            if func is None:
                continue
            is_signature_ctor = func.split(".")[-1] == "Signature"
            is_sign_call = func.split(".")[-1] == "sign"
            if not (is_signature_ctor or is_sign_call):
                continue
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if "tee_signer_id" in receiver_tokens(arg):
                    what = "Signature(...)" if is_signature_ctor else f"{func}(...)"
                    yield ctx.finding(
                        self,
                        node,
                        f"{what} uses tee_signer_id: host code may not sign "
                        "as a trusted component",
                    )
                    break


@register
class TrustedStateMutationRule(Rule):
    """TEE003: assigning to (or deleting) trusted-component state."""

    rule_id = "TEE003"
    title = "host code mutating trusted state"
    hint = (
        "trusted state changes only through the TEE interface; rebuild the "
        "component via sealed storage if recovery is the goal"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not _outside_trusted(ctx):
            return
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            for target in targets:
                # ``x.checker = ...`` rebinding the host's slot is fine;
                # ``x.checker.step = ...`` reaching *into* it is not.
                if isinstance(target, ast.Attribute) and _mentions_component(
                    target.value
                ):
                    yield ctx.finding(
                        self,
                        target,
                        f"mutation of trusted-component attribute {target.attr!r}",
                    )
