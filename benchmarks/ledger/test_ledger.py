# ruff: noqa: S101 - pytest asserts
"""Self-tests of the perf ledger: ``pytest benchmarks/ledger``.

They check the instrument, not the program: span arithmetic, the tail
percentile rule, the load generator's due-time bookkeeping, that the
tracer puts every wrapper back, that ``BENCHMARK.json`` names exactly
what the runner emits, and that the command honours its contract
(``--quick`` smoke run, one-line JSON result, non-zero exit without the
program).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import clients  # noqa: E402
import common  # noqa: E402
import stats  # noqa: E402
import tcpload  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core.messages import ClientReply, ClientRequest  # noqa: E402
from repro.runtime.effects import Send, SetTimer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- tracer ---------------------------------------------------------------------


class FakeNanos:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_span_minus_children() -> None:
    clock = FakeNanos()
    tracer = tracing.Tracer(clock=clock)

    def leaf() -> None:
        clock.now += 10

    traced_leaf = tracer.wrap(tracing.Target("leaf", "inner", "x:leaf"), leaf)

    def middle() -> None:
        clock.now += 5
        traced_leaf()
        traced_leaf()
        clock.now += 1

    traced_middle = tracer.wrap(tracing.Target("middle", "inner", "x:middle"), middle)

    def outer() -> None:
        clock.now += 100
        traced_middle()
        traced_leaf()

    traced_outer = tracer.wrap(tracing.Target("outer", "outer", "x:outer"), outer)
    traced_outer()
    clock.now += 1000  # time outside every span
    traced_leaf()

    leaf_stat, middle_stat, outer_stat = (tracer.stats[n] for n in ("leaf", "middle", "outer"))
    assert (leaf_stat.calls, leaf_stat.total_ns, leaf_stat.self_ns) == (4, 40, 40)
    assert (middle_stat.calls, middle_stat.total_ns, middle_stat.self_ns) == (1, 26, 6)
    assert (outer_stat.calls, outer_stat.total_ns, outer_stat.self_ns) == (1, 136, 100)
    # Self times add up to the time covered by outermost spans, exactly.
    assert sum(stat.self_ns for stat in tracer.stats.values()) == tracer.covered_ns == 146
    assert tracer.layer_self_ns("inner") == 46


def test_units_errors_and_span_sampling() -> None:
    from repro.errors import TEERefusal

    clock = FakeNanos()
    tracer = tracing.Tracer(clock=clock)

    def refuse(items: list[int]) -> list[int]:
        if not items:
            raise TEERefusal("empty")
        return items

    target = tracing.Target(
        "batch", "tee", "x:batch", units=lambda _args, result: len(result or ()),
        tag=lambda args: (7, len(args[0])),
    )
    traced = tracer.wrap(target, refuse)
    assert traced([1, 2, 3]) == [1, 2, 3]
    with pytest.raises(TEERefusal):
        traced([])
    stat = tracer.stats["batch"]
    assert (stat.calls, stat.units, stat.errors) == (2, 3, 1)
    # Both calls carried a view (3 and 0), so both were recorded in full.
    assert [(span[0], span[5], span[6]) for span in tracer.spans] == [
        ("batch", 7, 3), ("batch", 7, 0),
    ]


def test_install_wraps_and_uninstall_restores_everything() -> None:
    from repro.core import codec
    from repro.runtime import asyncio_net
    from repro.tee.checker import Checker

    originals = (codec.encode_message, asyncio_net.encode_message, Checker.__dict__["tee_sign"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracing.Tracer.restored()
        # The by-name import inside asyncio_net is patched too.
        assert asyncio_net.encode_message is codec.encode_message is not originals[0]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert tracing.Tracer.restored()
    assert (
        codec.encode_message, asyncio_net.encode_message, Checker.__dict__["tee_sign"]
    ) == originals


def test_target_names_are_unique_and_resolve() -> None:
    names = [target.name for target in tracing.TARGETS]
    assert len(names) == len(set(names))
    for target in tracing.TARGETS:
        owner, attr = tracing._resolve(target.path)
        assert callable(getattr(owner, attr)), target.path


# -- estimators -------------------------------------------------------------------


@pytest.mark.parametrize(
    ("count", "fraction"),
    [(5000, 0.99), (1000, 0.99), (999, 0.98), (600, 0.98), (200, 0.95), (100, 0.90),
     (40, 0.75), (39, 0.5), (1, 0.5)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count: int, fraction: float) -> None:
    assert stats.tail_fraction(count) == fraction
    if fraction > 0.5:
        beyond = count - -(-count * fraction // 1)
        assert beyond >= stats.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank() -> None:
    ordered = [float(i) for i in range(1, 101)]
    assert stats.percentile(ordered, 0.5) == 50.0
    assert stats.percentile(ordered, 0.99) == 99.0
    assert stats.percentile(ordered, 1.0) == 100.0
    assert stats.percentile([3.0], 0.99) == 3.0
    with pytest.raises(ValueError, match="empty"):
        stats.percentile([], 0.5)


def test_host_normalisation_scales_by_the_probe() -> None:
    assert common.host_normalised(2.0, common.PROBE_REF_S) == 2.0
    assert common.host_normalised(2.0, 2 * common.PROBE_REF_S) == 1.0  # host half as fast
    assert 0.0 < common.probe() < 0.05


# -- load generator ------------------------------------------------------------------


class HandClock:
    def __init__(self) -> None:
        self.now = 0.0


class Collector:
    """A runtime that keeps the effects instead of performing them."""

    def __init__(self) -> None:
        self.effects: list[object] = []

    def execute(self, effects: list[object]) -> None:
        self.effects.extend(effects)

    def take(self) -> list[object]:
        taken, self.effects = self.effects, []
        return taken


def _reply(tx_id: int, replica: int = 0) -> ClientReply:
    return ClientReply(replica=replica, client_id=0, tx_id=tx_id, executed_at=0.0)


def test_paced_client_sends_everything_due_and_times_from_due() -> None:
    clock, runtime = HandClock(), Collector()
    schedule = [clients.DueRequest(10.0, 0, 1), clients.DueRequest(20.0, 256, 2),
                clients.DueRequest(500.0, 0, 3)]
    client = clients.PacedClient(3, clock, 0, [0, 1, 2], schedule)
    client.runtime = runtime
    clock.now = 100.0
    client.start()
    (timer,) = runtime.take()
    assert isinstance(timer, SetTimer) and timer.delay_ms == 10.0

    clock.now = 145.0  # the loop stalled: both early requests are overdue
    client.on_timer(timer.timer_id)
    effects = runtime.take()
    sends = [e for e in effects if isinstance(e, Send)]
    assert len(sends) == 2 * 3  # two requests, broadcast to three replicas
    assert all(isinstance(e.payload, ClientRequest) for e in sends)
    assert [r.due_ms for r in client.records] == [110.0, 120.0]
    assert [r.sent_ms for r in client.records] == [145.0, 145.0]
    (rearm,) = [e for e in effects if isinstance(e, SetTimer)]
    assert rearm.delay_ms == pytest.approx(600.0 - 145.0)  # absolute, not re-armed from now

    clock.now = 150.0
    client.on_message(0, _reply(0))
    client.on_message(1, _reply(0, replica=1))  # duplicate reply: first wins
    client.on_message(0, _reply(99))  # a transaction this client never made
    assert client.records[0].done_ms == 150.0 and client.inflight == 1
    assert client.stray_replies == 1
    # The request never sent is still due - and therefore failed.
    assert [r.due_ms for r in client.unsent()] == [600.0]
    client.stop()
    client.on_timer(rearm.timer_id)
    assert [e for e in runtime.take() if isinstance(e, SetTimer)] == []


def test_closed_loop_client_refills_on_commit_until_stopped() -> None:
    clock, runtime = HandClock(), Collector()
    client = clients.ClosedLoopClient(3, clock, 0, [0, 1, 2], outstanding=4, payload_bytes=0)
    client.runtime = runtime
    client.start()
    assert client.inflight == 4 and len(runtime.take()) == 12
    clock.now = 7.0
    client.on_message(2, _reply(1))
    assert client.inflight == 4 and len(client.records) == 5
    assert client.records[4].due_ms == client.records[4].sent_ms == 7.0
    client.stop()
    client.on_message(2, _reply(0))
    assert client.inflight == 3 and len(client.records) == 5


def test_window_stats_assigns_by_due_time_and_counts_unanswered() -> None:
    records = [
        clients.RequestRecord(0, due_ms=100.0, sent_ms=101.0, done_ms=105.0),
        clients.RequestRecord(1, due_ms=199.0, sent_ms=199.5, done_ms=260.0),  # done later
        clients.RequestRecord(2, due_ms=150.0, sent_ms=150.0),  # never answered
        clients.RequestRecord(3, due_ms=170.0),  # never even sent
        clients.RequestRecord(4, due_ms=200.0, sent_ms=200.0, done_ms=201.0),  # next window
    ]
    window = tcpload.window_stats(records, 100.0, 200.0)
    assert (window.attempted, window.failed) == (4, 2)
    assert window.tx_per_s == pytest.approx(2 / 0.1)
    assert sorted(window.latencies_ms) == [5.0, 61.0]
    assert sorted(window.lags_ms) == [0.0, 0.5, 1.0]


def test_poisson_schedule_is_a_function_of_the_seed() -> None:
    def draw(seed: int) -> list[clients.DueRequest]:
        return clients.poisson_schedule(
            seed, 0, rate_per_s=150.0, duration_s=4.0, payload_mix=(0, 256, 1024), max_fee=100
        )

    assert draw(5) == draw(5) != draw(6)
    schedule = draw(5)
    assert 400 < len(schedule) < 800
    assert all(a.due_ms < b.due_ms for a, b in zip(schedule, schedule[1:], strict=False))
    assert {due.payload_bytes for due in schedule} == {0, 256, 1024}
    assert all(0 <= due.fee <= 100 for due in schedule)


# -- vocabulary and BENCHMARK.json -------------------------------------------------------


def test_names_and_units_are_well_formed() -> None:
    names = [*workloads.WORKLOADS, *(m.name for m in (*workloads.END_TO_END, *workloads.PER_LAYER))]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in (*workloads.END_TO_END, *workloads.PER_LAYER):
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for why in workloads.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    assert all(m.bound is not None and 0 < m.bound <= 0.25 for m in workloads.END_TO_END)
    setup = next(m for m in workloads.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in workloads.END_TO_END)
    assert set(workloads.WORKLOADS) == {*workloads.SIM_WORKLOADS, *workloads.TCP_WORKLOADS}


def test_benchmark_json_lists_exactly_what_the_runner_emits() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert spec["paths"] == ["benchmarks/ledger"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert spec["workloads"] == [
        {"name": name, "why": why} for name, why in workloads.WORKLOADS.items()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in workloads.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in workloads.PER_LAYER
    ]
    assert len(spec["per_layer"]) <= 128


# -- the command -----------------------------------------------------------------------------


def _run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(  # noqa: S603 - runs the benchmark's own script
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=300, check=False,
    )


def test_driver_mode_prints_one_json_result_line() -> None:
    done = _run("--workload", "sim-load", "--seed", "3", "--seconds", "1", "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in workloads.END_TO_END]
    for metric in workloads.END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0


def test_quick_suite_covers_every_workload_in_under_thirty_seconds(tmp_path: Path) -> None:
    out = tmp_path / "quick.json"
    started = time.monotonic()
    done = _run("--quick", "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == list(workloads.WORKLOADS)
    for row in result["workloads"].values():
        assert row["correct"] and list(row["end_to_end"]) == [m.name for m in workloads.END_TO_END]
    # A result file compares clean against itself.
    assert _run("--compare", str(out), str(out)).returncode == 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    script = tmp_path / "benchmarks" / "ledger" / "run.py"
    done = _run("--workload", "sim-load", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=script)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
