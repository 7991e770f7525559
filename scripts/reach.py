#!/usr/bin/env python3
"""Reach map: which functions of ``src/repro`` have a caller outside the tests.

Runs pytest in this process (by default over ``tests`` and
``benchmarks/ledger``) with a ``sys.setprofile`` hook that looks at every
call into a function defined under ``src/repro`` and at its caller: the
nearest calling frame in this repository, so the standard library,
site-packages and generated code (a dataclass's ``__init__`` calling
``__post_init__``, an event loop calling a protocol callback) are looked
through.  A caller in ``src``, ``scripts``, ``benchmarks`` or
``examples`` counts as production; one in a test module, a
``conftest.py`` or this script (pytest and Hypothesis calling in) as a
test.  Each function (every ``def`` found in the source, lambdas and
comprehensions left out) ends up in one of three classes:

* ``production`` - called at least once from a production frame;
* ``test-only`` - called, but only ever from test frames: the candidates
  for deletion;
* ``never`` - not called at all by the run.

Blind spots.  Only the nearest caller is looked at, so a function called
by production code that itself only tests call is ``production``, and
so is every machine entry point (``Machine``'s wrapper in
``runtime/machine.py`` is the caller), while an event-loop callback
(``_Inbound.buffer_updated``) belongs to whoever ran the loop, a test
that calls ``asyncio.run`` itself included.  Code that runs in a subprocess
is invisible: ``repro serve`` / ``net-chaos`` replicas, CLI commands a
test starts as a child process, ``benchmarks/ledger/run.py`` (which its
tests start as one: ``simload.py`` reads ``SafetyOracle.canonical_chain``
and ``Simulator.cancelled_pending``), the examples and whatever ``--jobs
N`` forks.  So a ``test-only`` function whose name appears in production
source outside its own file is listed with those files (a textual
match: a subprocess caller, a ``getattr`` or a namesake); check each
candidate by grep before deleting it.  The match reads name tokens, so
it cannot see code inside a string program: ``scripts/identity_evidence.py``
calls ``FaultPlan.duplicating_links`` and ``delaying_links`` in the
program it hands ``python -c``, and both are listed as test-only with no
production file.

Usage (from the repository root; about 5 minutes on a host where the plain suite takes 2)::

    PYTHONPATH=src python scripts/reach.py [--out reach.json] [-- pytest args]

Prints the counts and the ``test-only`` and ``never`` functions; ``--out``
also writes them as JSON.  Not a CI step: the run is several times
slower than the suite it profiles.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
import threading
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PRODUCTION_NAMES = ("src", "scripts", "benchmarks", "examples")
PRODUCTION_DIRS = tuple(str(ROOT / name) + "/" for name in PRODUCTION_NAMES)
REPOSITORY = str(ROOT) + "/"
DEFAULT_PATHS = ["tests", "benchmarks/ledger"]


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> qualified name`` of every ``def`` under ``src/repro``.

    The first line is a decorated function's first decorator, as in its
    code object's ``co_firstlineno``.
    """
    found: dict[tuple[str, int], str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        relative = str(path.relative_to(ROOT))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(str(path), first)] = f"{relative}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def is_production(filename: str) -> bool:
    name = pathlib.PurePath(filename).name
    if name.startswith("test_") or name == "conftest.py" or filename == __file__:
        return False
    return filename.startswith(PRODUCTION_DIRS)


def repository_caller(frame):
    """The nearest frame below ``frame`` whose code is in this repository."""
    caller = frame.f_back
    while caller is not None and not caller.f_code.co_filename.startswith(REPOSITORY):
        caller = caller.f_back
    return caller


def production_mentions(names: set[str]) -> dict[str, list[str]]:
    """For each bare name, the production files whose code (not a comment,
    a string or the name of a ``def``) contains it.  Dunder names are called
    implicitly and are left out."""
    wanted = {name for name in names if not name.startswith("__")}
    found: dict[str, list[str]] = {}
    for top in PRODUCTION_NAMES:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not is_production(str(path)):
                continue
            words: set[str] = set()
            previous = ""
            with tokenize.open(path) as source:
                for token in tokenize.generate_tokens(source.readline):
                    if token.type == tokenize.NAME and previous not in ("def", "class"):
                        words.add(token.string)
                    previous = token.string
            for name in wanted & words:
                found.setdefault(name, []).append(str(path.relative_to(ROOT)))
    return found


class ReachMap:
    """The profile hook and what it saw."""

    def __init__(self, functions: dict[tuple[str, int], str]) -> None:
        self.functions = functions
        self.production: set[str] = set()
        self.test_only: set[str] = set()
        # Code objects that need no more looking at: outside src/repro, or
        # already called from production.
        self._settled: set[object] = set()
        self._names: dict[object, str] = {}

    def hook(self, frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code in self._settled:
            return
        name = self._names.get(code)
        if name is None:
            name = self.functions.get((code.co_filename, code.co_firstlineno))
            if name is None:
                self._settled.add(code)
                return
            self._names[code] = name
        caller = repository_caller(frame)
        if caller is not None and is_production(caller.f_code.co_filename):
            self.production.add(name)
            self.test_only.discard(name)
            self._settled.add(code)
        elif name not in self.production:
            self.test_only.add(name)

    def report(self) -> dict[str, object]:
        every = set(self.functions.values())
        mentions = production_mentions({bare(name) for name in self.test_only})
        return {
            "functions": len(every),
            "production": len(self.production),
            "test_only": {
                name: [path for path in mentions.get(bare(name), []) if not name.startswith(path)]
                for name in sorted(self.test_only)
            },
            "never": sorted(every - self.production - self.test_only),
        }


def bare(qualified: str) -> str:
    """``src/x.py:Class.method`` -> ``method``."""
    return qualified.rsplit(":", 1)[1].rsplit(".", 1)[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=pathlib.Path, help="also write the map as JSON here")
    parser.add_argument("pytest_args", nargs="*", help="pytest arguments (after --)")
    args = parser.parse_args(argv)
    import pytest

    reach = ReachMap(defined_functions())
    pytest_args = args.pytest_args or ["-q", "-p", "no:cacheprovider", *DEFAULT_PATHS]
    threading.setprofile(reach.hook)
    sys.setprofile(reach.hook)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
    report = reach.report()
    print(
        f"\nreach: {report['functions']} functions, {report['production']} with a production "
        f"caller, {len(report['test_only'])} called only from tests, "
        f"{len(report['never'])} never called (pytest exit {int(status)})"
    )
    print("\ntest_only (production files naming it):")
    for name, files in report["test_only"].items():  # type: ignore[attr-defined]
        more = f", +{len(files) - 3} more" if len(files) > 3 else ""
        print(f"  {name}" + (f"  [{', '.join(files[:3])}{more}]" if files else ""))
    print("\nnever:")
    for name in report["never"]:  # type: ignore[attr-defined]
        print(f"  {name}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
