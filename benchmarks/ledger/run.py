"""The perf ledger's one command.

Driver mode - one workload in this process, one JSON object on the last
line of standard output::

    python3 benchmarks/ledger/run.py --workload sim-load --seed 1 --seconds 10 --trace 0

Suite mode - every workload untraced and then traced, each in its own
subprocess, one result file::

    python3 benchmarks/ledger/run.py [--quick] [--seed 1] [--out results.json]
    python3 benchmarks/ledger/run.py --repeat-check
    python3 benchmarks/ledger/run.py --compare a.json b.json

The script finds ``src/`` itself (it sits two directories below the
repository root), so no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import common
import workloads

_STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def _find_program() -> None:
    """Put ``src/`` on the path; exit 2 when the program is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no program to measure: {src / 'repro'} is missing\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# -- driver mode ---------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, traced: bool, quick: bool) -> Any:
    """Run one workload in this process; returns a ``common.Outcome``."""
    if workload not in workloads.WORKLOADS:
        sys.stderr.write(f"run.py: unknown workload {workload!r}\n")
        raise SystemExit(2)
    if workload in workloads.SIM_WORKLOADS:
        import simload as module
    else:
        import tcpload as module
    if traced:
        return module.run_traced(workload, seed, seconds, OUT_DIR)
    own_import_s = time.perf_counter() - _STARTED
    import_s = _median_import_s(module.__name__, own_import_s, extra=0 if quick else 4)
    return module.run_untraced(workload, seed, seconds, import_s, quick=quick)


#: What a child process runs to time one more import of a workload module.
_IMPORT_TIMER = """
import sys, time
started = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import {module}
print(time.perf_counter() - started)
"""


def _median_import_s(module: str, own_s: float, extra: int) -> float:
    """Median import time over this process and ``extra`` fresh ones.

    Import time is most of ``setup_s`` and a process can only take it
    once, so more processes take it again.
    """
    code = _IMPORT_TIMER.format(src=str(ROOT / "src"), here=str(HERE), module=module)
    samples = [own_s]
    for _ in range(extra):
        done = subprocess.run(  # noqa: S603 - this interpreter, a fixed script
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def print_outcome(outcome: Any, full: bool) -> None:
    """Human-readable rows, then the one-line JSON result the driver parses."""
    kind = "per-layer (traced)" if outcome.traced else "end-to-end (untraced)"
    print(f"# {outcome.workload} seed={outcome.seed} {kind}")
    for name, value in outcome.metrics.items():
        spec = workloads.BY_NAME[name]
        print(f"{name:42s} {value:16.4f} {spec.unit:6s} ({spec.better} is better)")
    for key, value in outcome.detail.items():
        print(f"# {key}: {json.dumps(value, default=str)}")
    for problem in outcome.problems:
        print(f"# PROBLEM: {problem}")
    result: dict[str, Any] = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": workloads.BY_NAME[name].unit}
            for name, value in outcome.metrics.items()
        },
    }
    if full:
        result["detail"] = outcome.detail
        result["problems"] = outcome.problems
    print(json.dumps(result, default=str))


# -- suite mode ------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, traced: bool, quick: bool) -> dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0", "--full",
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(  # noqa: S603 - runs this very script with fixed arguments
        command, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run.py: {workload} (trace={int(traced)}) exited {done.returncode}")
    return json.loads(lines[-1])


def _meta(seed: int, seconds: float, quick: bool) -> dict[str, Any]:
    try:
        commit = subprocess.run(  # noqa: S603
            ["git", "rev-parse", "HEAD"],  # noqa: S607 - git from PATH, read-only
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": common.cpus(),
        "calib_ops_per_s": common.calibrate(),
        "seed": seed,
        "run_seconds": seconds,
        "quick": quick,
    }


def run_suite(seed: int, seconds: float, quick: bool) -> dict[str, Any]:
    """Every workload untraced, then (unless quick) traced."""
    result: dict[str, Any] = {"meta": _meta(seed, seconds, quick), "workloads": {}}
    for workload in workloads.WORKLOADS:
        plain = _child(workload, seed, seconds, traced=False, quick=quick)
        row: dict[str, Any] = {
            "correct": plain["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": {name: m["value"] for name, m in plain["metrics"].items()},
            "detail": plain["detail"],
            "problems": plain["problems"],
        }
        if not quick:
            traced = _child(workload, seed, seconds, traced=True, quick=False)
            row["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            row["trace_detail"] = traced["detail"]
            row["correct"] = row["correct"] and traced["correct"]
            row["problems"] += traced["problems"]
        result["workloads"][workload] = row
        _print_row(workload, row)
    return result


def _print_row(workload: str, row: dict[str, Any]) -> None:
    flags = row["detail"].get("flags", [])
    status = "ok" if row["correct"] else "INCORRECT"
    print(f"\n== {workload}: {status}, {row['attempted']} attempted, {row['failed']} failed"
          + (f", FLAGGED: {'; '.join(flags)}" if flags else ""))
    for section in ("end_to_end", "per_layer"):
        for name, value in row.get(section, {}).items():
            spec = workloads.BY_NAME[name]
            bound = (
                f" bound {workloads.bound_for(workload, spec):.2f}"
                if spec.bound is not None else ""
            )
            print(f"  {name:42s} {value:16.4f} {spec.unit:6s} ({spec.better} is better){bound}")
    for key, value in row["detail"].get("exact", {}).items():
        print(f"  exact.{key:36s} {value}")
    for problem in row["problems"]:
        print(f"  PROBLEM: {problem}")


# -- comparing two result files ------------------------------------------------------


def compare(before: dict[str, Any], after: dict[str, Any], symmetric: bool) -> bool:
    """Print one row per workload x end-to-end metric; True when all are within bound.

    ``symmetric`` (the repeat check) fails a metric that moved either way
    by more than its bound; otherwise only a worsening fails.
    """
    ok = True
    print(f"{'workload':18s} {'metric':22s} {'before':>14s} {'after':>14s} "
          f"{'change':>9s} {'bound':>6s}  verdict")
    for workload in workloads.WORKLOADS:
        a_row = before["workloads"].get(workload)
        b_row = after["workloads"].get(workload)
        if a_row is None or b_row is None:
            print(f"{workload:18s} missing from one file")
            ok = False
            continue
        for spec in workloads.END_TO_END:
            a, b = a_row["end_to_end"][spec.name], b_row["end_to_end"][spec.name]
            bound = workloads.bound_for(workload, spec)
            change = (b - a) / a if a else 0.0
            worse = -change if spec.better == "higher" else change
            moved = abs(change) if symmetric else worse
            verdict = "ok"
            if moved > bound:
                verdict = "DIFFERS" if symmetric else "WORSE"
                ok = False
            elif worse < -bound:
                verdict = "better"
            print(f"{workload:18s} {spec.name:22s} {a:14.4f} {b:14.4f} "
                  f"{change:+9.2%} {bound:6.2f}  {verdict}")
        a_exact = a_row["detail"].get("exact", {})
        b_exact = b_row["detail"].get("exact", {})
        for key in sorted(set(a_exact) | set(b_exact)):
            same = a_exact.get(key) == b_exact.get(key)
            print(f"{workload:18s} exact.{key:16s} {a_exact.get(key)!s:>14.14s} "
                  f"{b_exact.get(key)!s:>14.14s} {'':9s} {'':6s}  {'ok' if same else 'DIFFERS'}")
            ok = ok and same
    return ok


# -- entry point ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="add detail and problems to the result line (suite-internal)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 window / 1 repetition, untraced only")
    parser.add_argument("--out", type=Path, help="write the suite's result file here")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice; fail if the two disagree beyond the bounds")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        return 0 if compare(before, after, symmetric=False) else 1

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        )
    if seconds <= 0:
        parser.error("--seconds must be positive")
    _find_program()

    if args.workload:
        # A printed result always exits 0: ``correct`` carries the verdict.
        print_outcome(
            run_one(args.workload, args.seed, seconds, bool(args.trace), args.quick), args.full
        )
        return 0

    first = run_suite(args.seed, seconds, args.quick)
    ok = all(row["correct"] for row in first["workloads"].values())
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(first, indent=1, default=str) + "\n")
        print(f"\nwrote {args.out}")
    if args.repeat_check:
        second = run_suite(args.seed, seconds, args.quick)
        ok = ok and all(row["correct"] for row in second["workloads"].values())
        print()
        ok = compare(first, second, symmetric=True) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
