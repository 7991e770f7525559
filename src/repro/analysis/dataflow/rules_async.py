"""ASYNC001-002: await-race detection for the asyncio runtime.

asyncio is cooperatively scheduled: code between two ``await``s runs
atomically, but *across* an ``await`` any other task may interleave.
The classic hazard is a read-modify-write of shared instance state
spanning a suspension point - ``tasks = list(self._tasks)``, ``await
gather(...)``, ``self._tasks.clear()`` - where a task registered during
the await is silently dropped by the stale clear.

**ASYNC001** flags, per async function and per ``self.<attr>`` (or
``nonlocal`` name): a read at line *r*, an ``await`` (including ``async
for``/``async with`` headers, which also suspend) at line *a*, and a
write at line *w* with ``r < a < w``, unless both the read and the
write sit inside the same ``async with`` over a lock-like object (name
containing ``lock``/``mutex``/``sem``).  Mutating method calls
(``clear``, ``append``, ``pop``...) count as writes only - ``add`` /
``discard`` of independent elements is not a stale read.  Textual
ordering approximates program order, which is exact for straight-line
teardown code and conservative in loops.

**ASYNC002** flags an ``await`` inside a ``for``/``while`` loop that is
itself inside an ``async with`` lock block: holding a lock across a
loop of suspension points starves every other task contending for it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow.graph import scoped_statements
from repro.analysis.engine import FileContext, Finding, Rule, receiver_tokens, register

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "add", "clear", "pop", "popleft", "remove", "discard",
    "update", "extend", "insert", "setdefault", "popitem",
}

_LOCKISH = ("lock", "mutex", "sem")


def _is_lockish(expr: ast.expr) -> bool:
    return any(
        any(part in token.lower() for part in _LOCKISH)
        for token in receiver_tokens(expr)
    )


class _AsyncEvents:
    """Reads/writes/awaits of one async function, by line number."""

    def __init__(self, fn: ast.AsyncFunctionDef) -> None:
        self.reads: dict[str, list[int]] = {}
        self.writes: dict[str, list[int]] = {}
        self.awaits: list[int] = []
        #: [start, end] line ranges of ``async with <lock>`` blocks.
        self.lock_ranges: list[tuple[int, int]] = []
        #: (loop start, loop end) for loops inside a lock range.
        self.locked_loops: list[tuple[int, int]] = []
        self._nonlocals: set[str] = set()
        #: Receiver nodes consumed by a mutator call (identity-keyed).
        self._mutated_receivers: set[ast.expr] = set()
        self._collect(fn)

    def _attr_name(self, node: ast.expr) -> str | None:
        """``self.X`` -> ``X``; nonlocal name -> name; else ``None``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        if isinstance(node, ast.Name) and node.id in self._nonlocals:
            return node.id
        return None

    def _collect(self, fn: ast.AsyncFunctionDef) -> None:
        nodes = list(scoped_statements(fn))
        for node in nodes:
            if isinstance(node, ast.Nonlocal):
                self._nonlocals.update(node.names)
        for node in nodes:
            if isinstance(node, ast.Await):
                self.awaits.append(node.lineno)
            elif isinstance(node, (ast.AsyncFor, ast.AsyncWith)):
                self.awaits.append(node.lineno)  # headers suspend too
                if isinstance(node, ast.AsyncWith) and any(
                    _is_lockish(item.context_expr) for item in node.items
                ):
                    end = node.end_lineno or node.lineno
                    self.lock_ranges.append((node.lineno, end))
                    for sub in ast.walk(node):
                        if isinstance(sub, (ast.For, ast.While, ast.AsyncFor)):
                            self.locked_loops.append(
                                (sub.lineno, sub.end_lineno or sub.lineno)
                            )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                # self.X.mutator(...): a write to X, and the receiver
                # attribute node must not double-count as a read.
                name = self._attr_name(node.func.value)
                if name is not None and node.func.attr in _MUTATORS:
                    self.writes.setdefault(name, []).append(node.lineno)
                    self._mutated_receivers.add(node.func.value)
        for node in nodes:
            if isinstance(node, (ast.Attribute, ast.Name)):
                name = self._attr_name(node)
                if name is None or node in self._mutated_receivers:
                    continue
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    self.writes.setdefault(name, []).append(node.lineno)
                else:
                    self.reads.setdefault(name, []).append(node.lineno)

    def _locked_together(self, read: int, write: int) -> bool:
        return any(
            start <= read <= end and start <= write <= end
            for start, end in self.lock_ranges
        )

    def races(self) -> Iterator[tuple[str, int, int, int]]:
        """(attr, read line, await line, write line) triples, one per attr."""
        for attr, writes in sorted(self.writes.items()):
            reads = self.reads.get(attr, [])
            hit = None
            for read in sorted(reads):
                for write in sorted(writes):
                    if read >= write:
                        continue
                    awaited = next(
                        (a for a in sorted(self.awaits) if read < a < write),
                        None,
                    )
                    if awaited is not None and not self._locked_together(
                        read, write
                    ):
                        hit = (attr, read, awaited, write)
                        break
                if hit:
                    break
            if hit:
                yield hit

    def loop_awaits_under_lock(self) -> Iterator[int]:
        for await_line in sorted(self.awaits):
            for start, end in self.locked_loops:
                # The loop header itself (an async-for await) is the
                # loop, not a suspension inside it.
                if start < await_line <= end:
                    yield await_line
                    break


def _async_functions(ctx: FileContext) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def _line_node(fn: ast.AsyncFunctionDef, lineno: int) -> ast.AST:
    """The smallest statement anchored at ``lineno`` (for suppression)."""
    best: ast.AST = fn
    for node in ast.walk(fn):
        if getattr(node, "lineno", None) == lineno and isinstance(
            node, (ast.stmt, ast.expr)
        ):
            return node
    return best


@register
class AwaitRaceRule(Rule):
    """ASYNC001: read-modify-write of shared state across an await."""

    rule_id = "ASYNC001"
    title = "read-modify-write spans an await without a lock"
    hint = (
        "snapshot-and-detach the shared state before awaiting (read and "
        "write in the same inter-await segment), or guard both sides "
        "with the same asyncio.Lock"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in _async_functions(ctx):
            events = _AsyncEvents(fn)
            for attr, read, awaited, write in events.races():
                yield ctx.finding(
                    self,
                    _line_node(fn, write),
                    f"{fn.name}: '{attr}' read at line {read} and written "
                    f"at line {write} across the await at line {awaited}; "
                    "another task may interleave",
                )


@register
class AwaitInLockedLoopRule(Rule):
    """ASYNC002: awaiting inside a loop while holding a lock."""

    rule_id = "ASYNC002"
    title = "await inside a loop under an async lock"
    hint = (
        "move the await out of the locked region, or take the lock "
        "per-iteration so contending tasks can make progress"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in _async_functions(ctx):
            events = _AsyncEvents(fn)
            for await_line in events.loop_awaits_under_lock():
                yield ctx.finding(
                    self,
                    _line_node(fn, await_line),
                    f"{fn.name}: await at line {await_line} inside a loop "
                    "holding an async lock",
                )
