"""``repro lint``: one rule registry, one baseline, one suppression spelling.

Every static invariant of this reproduction is a rule in one
:class:`RuleRegistry`, run by one :func:`run_lint` over one parsed
project.  The rules come in seven families:

* per-file syntactic invariants (:mod:`repro.analysis.lint`): ``TEE``
  trust-boundary fencing, ``DET`` determinism, ``MSG`` message
  exhaustiveness and ``ARCH`` layering;
* whole-program dataflow (:mod:`repro.analysis.dataflow`): ``TAINT``
  host data crossing the TEE boundary unverified, ``PURE`` transitive
  effect purity and ``ASYNC`` await races.

Findings carry a stable rule id, location and fix hint; they can be
silenced per line with ``# repro-lint: ignore[RULE]`` (or a bare
``ignore`` for all rules), per file with ``# repro-lint: skip-file``,
or per finding via the committed JSON baseline
(:data:`BASELINE_DEFAULT`).  Suppression comments are matched over the
whole physical extent of the offending node - including decorator lines
above a decorated ``def``/``class`` and every line of a multiline
expression - so the comment can sit wherever the code is readable.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

_IGNORE_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Za-z0-9,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")

#: Default baseline location, resolved against the current directory.
BASELINE_DEFAULT = ".repro-lint-baseline.json"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``span_start``/``span_end`` bound the physical lines of the node the
    finding anchors to (0 = just ``line``); they exist so inline
    suppression comments work on decorated and multiline nodes, and they
    deliberately stay out of :meth:`key` and :meth:`to_json` - baselines
    and reports identify a finding by its primary line alone.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    span_start: int = 0
    span_end: int = 0

    def key(self) -> str:
        """Stable identity used by the baseline file."""
        return f"{self.path}::{self.rule_id}::{self.line}"

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


class FileContext:
    """One parsed source file plus the metadata rules need."""

    def __init__(self, path: Path, rel: str, module: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel)
        self.skip_file = any(_SKIP_FILE_RE.search(line) for line in self.lines[:5])

    def finding(
        self, rule: "Rule", node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        span_start = line
        # A decorated def/class starts - as humans read it - at its first
        # decorator; let a suppression comment live there too.
        for deco in getattr(node, "decorator_list", ()) or ():
            span_start = min(span_start, getattr(deco, "lineno", span_start))
        if hasattr(node, "body"):
            # Compound statements (def, class, if, for...) suppress on
            # their header only - a comment buried in the body must not
            # silence a finding about the statement itself.
            span_end = line
        else:
            span_end = getattr(node, "end_lineno", None) or line
        return Finding(
            rule_id=rule.rule_id,
            path=self.rel,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=rule.hint if hint is None else hint,
            span_start=span_start,
            span_end=span_end,
        )

    def suppressed(self, finding: Finding) -> bool:
        """True if any line of the finding's node carries an ignore comment."""
        start = finding.span_start or finding.line
        end = finding.span_end or finding.line
        for lineno in range(start, end + 1):
            if not 1 <= lineno <= len(self.lines):
                continue
            match = _IGNORE_RE.search(self.lines[lineno - 1])
            if match is None:
                continue
            rules = match.group(1)
            if rules is None:
                return True  # bare "ignore": all rules
            if finding.rule_id in {r.strip().upper() for r in rules.split(",")}:
                return True
        return False


class ProjectContext:
    """Every parsed file of one analysis run, indexed for project rules."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files = list(files)
        self.by_module = {ctx.module: ctx for ctx in self.files}

    def in_package(self, package: str) -> list[FileContext]:
        prefix = package + "."
        return [
            ctx
            for ctx in self.files
            if ctx.module == package or ctx.module.startswith(prefix)
        ]


class Rule:
    """A per-file rule; subclasses override :meth:`check_file`."""

    rule_id = "RULE000"
    title = ""
    hint = ""

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


class ProjectRule(Rule):
    """A rule that needs the whole parsed project at once."""

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        return iter(())


class RuleRegistry:
    """Every rule ``repro lint`` knows, keyed by rule id."""

    def __init__(self) -> None:
        self.rules: dict[str, Rule] = {}

    def register(self, rule_cls: type[Rule]) -> type[Rule]:
        """Class decorator: instantiate and register a rule."""
        rule = rule_cls()
        if rule.rule_id in self.rules:
            raise ValueError(f"duplicate rule id {rule.rule_id}")
        self.rules[rule.rule_id] = rule
        return rule_cls

    def ids(self) -> list[str]:
        return sorted(self.rules)

    def select(self, rules: Sequence[str] | None) -> list[Rule]:
        """Resolve a ``--rule`` filter; unknown ids raise ``KeyError``."""
        selected: list[Rule] = []
        for rule_id in rules if rules is not None else self.ids():
            rule = self.rules.get(rule_id.upper())
            if rule is None:
                raise KeyError(
                    f"unknown rule {rule_id!r}; known: {', '.join(self.ids())}"
                )
            selected.append(rule)
        return selected


#: The one registry; rule modules fill it through :func:`register`.
REGISTRY = RuleRegistry()
register = REGISTRY.register


def _loaded_registry() -> RuleRegistry:
    """:data:`REGISTRY` with every rule module imported.

    The rule modules register on import and import this module's
    vocabulary, so they load on first use, not with this module: a rule
    module imported on its own finds this one complete.
    """
    from repro.analysis.dataflow import rules_async, rules_pure, rules_taint  # noqa: F401
    from repro.analysis.lint import rules_arch, rules_det, rules_msg, rules_tee  # noqa: F401

    return REGISTRY


def all_rule_ids() -> list[str]:
    return _loaded_registry().ids()


# -- helpers shared by rule modules -------------------------------------------


def module_name(path: Path) -> str:
    """Dotted module path, inferred from ``__init__.py`` package markers.

    Walking up the directory tree (rather than relying on a ``src`` root
    passed in) makes the rules work identically on the real tree and
    on fixture trees tests build under a temp directory.
    """
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def dotted_name(node: ast.AST) -> str | None:
    """Flatten ``a.b.c`` attribute chains to a dotted string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def class_attr_values(cls: ast.ClassDef, names: Sequence[str]) -> Iterator[ast.expr]:
    """Values a class body assigns - plainly or annotated - to any of ``names``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if stmt.value is not None and any(
            isinstance(t, ast.Name) and t.id in names for t in targets
        ):
            yield stmt.value


def receiver_tokens(node: ast.AST) -> set[str]:
    """Every name and attribute label appearing in a receiver expression."""
    tokens: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            tokens.add(sub.attr)
        elif isinstance(sub, ast.Name):
            tokens.add(sub.id)
    return tokens


# -- file collection -----------------------------------------------------------


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" not in sub.parts:
                    yield sub


def _relative_label(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_files(paths: Iterable[Path]) -> tuple[list[FileContext], list[Finding]]:
    """Parse every target; syntax errors become PARSE000 findings."""
    contexts: list[FileContext] = []
    errors: list[Finding] = []
    for path in iter_python_files(paths):
        rel = _relative_label(path)
        source = path.read_text(encoding="utf-8")
        try:
            ctx = FileContext(path, rel, module_name(path), source)
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule_id="PARSE000",
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        if not ctx.skip_file:
            contexts.append(ctx)
    return contexts, errors


# -- baseline ------------------------------------------------------------------


def load_baseline(path: Path | str) -> set[str]:
    """Finding keys waived by the committed baseline (empty if absent)."""
    baseline_path = Path(path)
    if not baseline_path.exists():
        return set()
    data = json.loads(baseline_path.read_text(encoding="utf-8"))
    return set(data.get("findings", []))


def write_baseline(path: Path | str, findings: Sequence[Finding]) -> None:
    payload = {
        "version": 1,
        "findings": sorted(finding.key() for finding in findings),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# -- entry point ---------------------------------------------------------------


def run_lint(
    paths: Sequence[Path | str],
    *,
    rules: Sequence[str] | None = None,
    baseline: set[str] | None = None,
) -> list[Finding]:
    """Run every registered rule over ``paths``; return surviving findings.

    ``rules`` restricts the run to the given rule ids; ``baseline`` is a
    set of finding keys to drop (see :func:`load_baseline`).  Findings
    are sorted by location.
    """
    selected = _loaded_registry().select(rules)
    contexts, findings = parse_files(Path(p) for p in paths)
    project = ProjectContext(contexts)
    by_rel = {ctx.rel: ctx for ctx in contexts}
    for rule in selected:
        if isinstance(rule, ProjectRule):
            raw: Iterable[Finding] = rule.check_project(project)
        else:
            raw = (f for ctx in contexts for f in rule.check_file(ctx))
        for finding in raw:
            ctx = by_rel.get(finding.path)
            if ctx is not None and ctx.suppressed(finding):
                continue
            findings.append(finding)

    if baseline:
        findings = [f for f in findings if f.key() not in baseline]
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))


def format_findings_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro lint: no findings"
    lines = [finding.render() for finding in findings]
    lines.append(f"repro lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def format_findings_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        {"count": len(findings), "findings": [f.to_json() for f in findings]},
        indent=2,
    )

