"""Benchmark-side tracer: timing wrappers on each layer's public entry points.

Nothing under ``src/`` knows about this module.  :data:`TARGETS` is a
fixed table ``stat name -> module:attr``; :meth:`Tracer.install` swaps a
timing wrapper in for each target (class attributes directly, module
functions in every ``repro`` module that imported them by name) and
:meth:`Tracer.uninstall` puts the originals back, which
:meth:`Tracer.restored` verifies.

The process is single-threaded and only synchronous functions are
wrapped, so one span stack is exact: a span's *self* time is its duration
minus the durations of the spans it called.  Every call updates exact
per-entry-point aggregates ``(calls, units, total, self, errors)``; full
span records (name, start, end, parent, pid, view) are kept only for a
bounded sample of views and written out with the aggregates at the end
of the run (:meth:`Tracer.write_jsonl`).

The module is named ``tracing`` rather than ``trace`` because the script
directory leads ``sys.path`` and must not shadow the standard library.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.messages import ClientRequest
from repro.errors import TEERefusal
from repro.protocols.replica import BaseReplica

#: Distinct views whose spans are recorded in full.
SAMPLED_VIEWS = 8
#: Hard cap on recorded spans, whatever the views contain.
MAX_SPANS = 20_000

#: Top-level module names of the benchmark itself (imported as scripts);
#: like ``repro.*`` modules they may hold a by-name import of a target.
_BENCH_MODULES = ("clients", "simload", "tcpload", "micro")

Hook = Callable[["Tracer", tuple[Any, ...], Any], None]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point."""

    name: str  # stat name, unique
    layer: str  # module-level layer the time is booked to
    path: str  # "module:attr" or "module:Class.attr"
    #: Work units in one call (signatures in a batch, frames in a feed).
    units: Callable[[tuple[Any, ...], Any], int] | None = None
    #: Re-route a call to another stat name (replica vs client handlers).
    classify: Callable[[tuple[Any, ...]], str] | None = None
    #: (pid, view) of the call, when its arguments carry them.
    tag: Callable[[tuple[Any, ...]], tuple[int, int | None]] | None = None
    #: Observe arguments/result after the call (counts taken where work happens).
    observe: Hook | None = None


@dataclass
class Stat:
    """Exact aggregate of one entry point."""

    layer: str
    calls: int = 0
    units: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0  # TEERefusal raised through the span


def _pairs(args: tuple[Any, ...], _result: Any) -> int:
    return len(args[1])


def _result_len(_args: tuple[Any, ...], result: Any) -> int:
    return len(result) if result is not None else 0


def _machine_tag(args: tuple[Any, ...]) -> tuple[int, int | None]:
    view = getattr(args[2], "view", None) if len(args) > 2 else None
    return args[0].pid, view if isinstance(view, int) else None


def _replica_message_stat(args: tuple[Any, ...]) -> str:
    if isinstance(args[2], ClientRequest):
        return "protocols.on_client_request"
    return "protocols.on_message"


def _timer_stat(args: tuple[Any, ...]) -> str:
    return "protocols.on_timer" if isinstance(args[0], BaseReplica) else "loadgen.on_timer"


def _cancel_stat(args: tuple[Any, ...]) -> str:
    # Only a cancel that kills a still-pending event counts; cancelling a
    # fired or already-cancelled event is a no-op the heap never sees.
    event = args[0]
    return "sim.cancel" if not event.cancelled and event.sim is not None else "sim.cancel_noop"


def _observe_admit(tracer: "Tracer", args: tuple[Any, ...], _result: Any) -> None:
    pool, tx, now = args[0], args[1], args[2]
    tracer.admitted_at[(id(pool), tx.client_id, tx.tx_id)] = now


def _observe_take_block(tracer: "Tracer", args: tuple[Any, ...], result: Any) -> None:
    pool, now = args[0], args[1]
    for tx in result:
        admitted = tracer.admitted_at.pop((id(pool), tx.client_id, tx.tx_id), None)
        if admitted is not None:
            tracer.queue_waits_ms.append(now - admitted)


def _observe_execute(tracer: "Tracer", _args: tuple[Any, ...], result: Any) -> None:
    for block in result:
        if block.hash not in tracer.block_sizes:
            tracer.block_sizes[block.hash] = block.num_transactions()


#: Stat names a ``classify`` hook may return, with the layer they book to.
EXTRA_STATS = {
    "protocols.on_client_request": "protocols",
    "protocols.on_timer": "protocols",
    "loadgen.on_timer": "loadgen",
    "sim.cancel_noop": "sim",
}

TARGETS: tuple[Target, ...] = (
    # -- core.codec ---------------------------------------------------------
    Target("codec.encode", "core.codec", "repro.core.codec:encode_message",
           units=_result_len),
    Target("codec.decode", "core.codec", "repro.core.codec:decode_message"),
    # -- runtime.framing ----------------------------------------------------
    Target("framing.feed", "runtime.framing",
           "repro.runtime.framing:FrameDecoder.feed", units=_result_len),
    # -- runtime.asyncio_net ------------------------------------------------
    Target("transport.execute", "runtime.asyncio_net",
           "repro.runtime.asyncio_net:AsyncioRuntime.execute"),
    # Every callback the event loop runs (task steps, socket readers,
    # timers): its self time is asyncio's stream/task machinery plus the
    # runtime's own coroutine bodies, which no public function brackets.
    Target("loop.callback", "runtime.asyncio_net", "asyncio.events:Handle._run"),
    # -- crypto ---------------------------------------------------------------
    Target("crypto.sign", "crypto", "repro.crypto.hmac_scheme:HmacScheme.sign"),
    Target("crypto.verify", "crypto", "repro.crypto.hmac_scheme:HmacScheme.verify"),
    Target("crypto.verify_many", "crypto",
           "repro.crypto.hmac_scheme:HmacScheme.verify_many", units=_pairs),
    Target("crypto.verify_cached", "crypto",
           "repro.crypto.scheme:SignatureScheme.verify_cached"),
    Target("crypto.verify_many_cached", "crypto",
           "repro.crypto.scheme:SignatureScheme.verify_many_cached", units=_pairs),
    Target("crypto.verify_all", "crypto",
           "repro.crypto.scheme:SignatureScheme.verify_all"),
    Target("hashing.sha256", "crypto.hashing", "repro.crypto.hashing:sha256"),
    Target("hashing.encode_fields", "crypto.hashing",
           "repro.crypto.hashing:encode_fields"),
    Target("hashing.hash_fields", "crypto.hashing", "repro.crypto.hashing:hash_fields"),
    Target("hashing.hash_block_fields", "crypto.hashing",
           "repro.crypto.hashing:hash_block_fields"),
    # -- tee --------------------------------------------------------------------
    Target("tee.checker_sign", "tee", "repro.tee.checker:Checker.tee_sign"),
    Target("tee.checker_prepare", "tee", "repro.tee.checker:Checker.tee_prepare"),
    Target("tee.checker_store", "tee", "repro.tee.checker:Checker.tee_store"),
    Target("tee.checker_checkpoint", "tee", "repro.tee.checker:Checker.tee_checkpoint"),
    Target("tee.accumulate", "tee",
           "repro.tee.accumulator:AccumulatorService.accumulate"),
    Target("tee.acc_start", "tee", "repro.tee.accumulator:AccumulatorService.tee_start"),
    Target("tee.acc_accum", "tee", "repro.tee.accumulator:AccumulatorService.tee_accum"),
    Target("tee.acc_finalize", "tee",
           "repro.tee.accumulator:AccumulatorService.tee_finalize"),
    # -- mempool ----------------------------------------------------------------
    Target("mempool.admit", "mempool", "repro.mempool.pool:PriorityMempool.admit",
           observe=_observe_admit),
    Target("mempool.take_block", "mempool",
           "repro.mempool.pool:PriorityMempool.take_block", units=_result_len,
           observe=_observe_take_block),
    # -- protocols --------------------------------------------------------------
    Target("protocols.on_message", "protocols",
           "repro.protocols.replica:BaseReplica.on_message",
           classify=_replica_message_stat, tag=_machine_tag),
    Target("protocols.on_timer", "protocols", "repro.runtime.machine:Machine.on_timer",
           classify=_timer_stat),
    # -- core.executor ------------------------------------------------------------
    Target("executor.execute", "core.executor", "repro.core.executor:Ledger.execute",
           observe=_observe_execute),
    # -- sim (sim.events, sim.network, runtime.sim) ---------------------------------
    Target("sim.run", "sim", "repro.sim.events:Simulator.run"),
    Target("sim.execute", "sim", "repro.runtime.sim:MachineProcess.execute"),
    Target("sim.cancel", "sim", "repro.sim.events:Event.cancel", classify=_cancel_stat),
    # -- load generator ---------------------------------------------------------------
    Target("loadgen.on_message", "loadgen", "repro.protocols.client:Client.on_message"),
    Target("loadgen.bench_on_message", "loadgen", "clients:BenchClient.on_message"),
)


def _resolve(path: str) -> tuple[Any, str]:
    """(owner object, attribute name) of a ``module:attr`` path."""
    module_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _binding(owner: Any, attr: str) -> Any:
    """What ``attr`` is bound to on ``owner`` itself (not an inherited attribute)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Span stack, exact aggregates and a bounded sample of full spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.covered_ns = 0  # total time inside outermost spans
        self.spans: list[list[Any]] = []
        self.sampled_views: set[int] = set()
        # Facts the observe hooks collect where the work happens.
        self.admitted_at: dict[tuple[int, int, int], float] = {}
        self.queue_waits_ms: list[float] = []
        self.block_sizes: dict[bytes, int] = {}
        self._stack: list[list[int]] = []  # [child_ns, span index or -1]
        self._recording: tuple[int, int] | None = None
        self._patches: list[tuple[Any, str, Any, Any]] = []  # owner, attr, original, wrapper

    # -- wrapping --------------------------------------------------------------

    def stat(self, name: str, layer: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(layer)
        return stat

    def wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        """The timing wrapper for ``fn`` (exposed for the self-tests)."""
        tracer = self
        clock = self.clock
        stack = self._stack
        spans = self.spans
        default_stat = self.stat(target.name, target.layer)
        units, classify, tag, observe = (
            target.units, target.classify, target.tag, target.observe
        )
        default_name = target.name

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stat = default_stat
            name = default_name
            if classify is not None:
                name = classify(args)
                if name != default_name:
                    stat = tracer.stat(name, EXTRA_STATS[name])
            owner = False
            if tag is not None and tracer._recording is None:
                pid, view = tag(args)
                if view is not None and tracer._sample(view):
                    tracer._recording = (pid, view)
                    owner = True
            index = -1
            if tracer._recording is not None and len(spans) < MAX_SPANS:
                index = len(spans)
                parent = stack[-1][1] if stack else -1
                spans.append([name, stat.layer, 0, 0, parent, *tracer._recording])
            frame = [0, index]
            stack.append(frame)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except TEERefusal:
                stat.errors += 1
                raise
            finally:
                ended = clock()
                elapsed = ended - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.covered_ns += elapsed
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                if index >= 0:
                    spans[index][2] = started
                    spans[index][3] = ended
                if owner:
                    tracer._recording = None
                if units is not None:
                    stat.units += units(args, result)
                if observe is not None and result is not None:
                    observe(tracer, args, result)

        traced.__wrapped_by_ledger__ = True  # type: ignore[attr-defined]
        return traced

    def _sample(self, view: int) -> bool:
        if view in self.sampled_views:
            return True
        if len(self.sampled_views) < SAMPLED_VIEWS:
            self.sampled_views.add(view)
            return True
        return False

    # -- install / restore -------------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Swap a wrapper in for every target (idempotence is the caller's job)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            owner, attr = _resolve(target.path)
            original = _binding(owner, attr)
            wrapper = self.wrap(target, original)
            holders = [owner]
            if not isinstance(owner, type):
                # ``from module import fn`` copied the binding: patch every
                # repro module (and benchmark module) that holds it.
                holders += [
                    module
                    for module_name, module in list(sys.modules.items())
                    if module is not owner
                    and module is not None
                    and module_name.split(".")[0] in ("repro", *_BENCH_MODULES)
                    and module.__dict__.get(attr) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original, wrapper))

    def uninstall(self) -> None:
        """Put every original back, in reverse order."""
        while self._patches:
            holder, attr, original, _wrapper = self._patches.pop()
            setattr(holder, attr, original)

    @staticmethod
    def restored(targets: tuple[Target, ...] = TARGETS) -> bool:
        """True when no target (in its defining module) is still wrapped."""
        for target in targets:
            owner, attr = _resolve(target.path)
            if getattr(_binding(owner, attr), "__wrapped_by_ledger__", False):
                return False
        return True

    # -- reading -------------------------------------------------------------------

    def layer_self_ns(self, layer: str) -> int:
        return sum(stat.self_ns for stat in self.stats.values() if stat.layer == layer)

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat is not None else 0

    def units(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.units if stat is not None else 0

    def self_ns(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.self_ns if stat is not None else 0

    def write_jsonl(self, path: Path, meta: dict[str, Any]) -> None:
        """Aggregates first, then the sampled spans, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"kind": "meta", **meta}) + "\n")
            for name, stat in sorted(self.stats.items()):
                out.write(json.dumps({
                    "kind": "aggregate", "name": name, "layer": stat.layer,
                    "calls": stat.calls, "units": stat.units,
                    "total_us": stat.total_ns / 1e3, "self_us": stat.self_ns / 1e3,
                    "errors": stat.errors,
                }) + "\n")
            for span_id, (name, layer, start, end, parent, pid, view) in enumerate(self.spans):
                out.write(json.dumps({
                    "kind": "span", "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "start_ns": start, "end_ns": end,
                    "pid": pid, "view": view,
                }) + "\n")

