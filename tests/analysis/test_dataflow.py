"""Tests for the whole-program dataflow rules of ``repro lint``.

Each rule family gets firing and clean fixtures under a temp tree, the
PR-6 ``tee_checkpoint`` bug is re-detected from its historical shape,
and meta-tests pin the real ``src/`` tree to zero findings with an
empty committed baseline - the acceptance criteria of the analyzer.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.engine import (
    BASELINE_DEFAULT,
    all_rule_ids,
    load_baseline,
    run_lint,
)
from repro.cli import main
from tests.analysis.test_lint import make_module

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: The whole-program rule families, run alone unless a test names its rules.
DATAFLOW_RULES = [r for r in all_rule_ids() if r.startswith(("TAINT", "PURE", "ASYNC"))]


def analyze_ids(
    root: Path, rules: list[str] | None = None
) -> list[tuple[str, int]]:
    findings = run_lint([root], rules=rules or DATAFLOW_RULES)
    return [(f.rule_id, f.line) for f in findings]


# -- TAINT001: host data written to protected TEE state -------------------------


def test_taint001_host_param_stored_unverified(tmp_path):
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, height):
                self._height = height
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT001"]) == [("TAINT001", 4)]


def test_taint001_ordering_guard_does_not_sanitize(tmp_path):
    """The PR-6 shape: ``<=`` constrains a value without verifying it."""
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, height):
                if height <= self._height:
                    raise ValueError(height)
                self._height = height
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT001"]) == [("TAINT001", 6)]


def test_taint001_equality_guard_sanitizes(tmp_path):
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, digest):
                if digest != self._expected:
                    raise ValueError(digest)
                self._latest = digest
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT001"]) == []


def test_taint001_verifier_call_sanitizes(tmp_path):
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, qc):
                if not self._verify_commitment(qc):
                    raise ValueError(qc)
                self._qc = qc
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT001"]) == []


def test_taint001_propagates_through_helper(tmp_path):
    """A private helper whose param reaches protected state is a sink."""
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, root):
                self._install(root)

            def _install(self, root):
                self._root = root
        """,
    )
    findings = run_lint([tmp_path], rules=["TAINT001"])
    assert [(f.rule_id, f.line) for f in findings] == [("TAINT001", 4)]
    assert "via" in findings[0].message


# -- TAINT002: host data certified by the TEE -----------------------------------


def test_taint002_unverified_param_reaches_certification(tmp_path):
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        def checkpoint_payload(signer, height):
            return ("ckpt", signer, height)

        class Checker:
            def tee_checkpoint(self, height):
                payload = checkpoint_payload(self._signer, height)
                return self._sign(payload)
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT002"]) == [
        ("TAINT002", 7),
        ("TAINT002", 8),
    ]


def test_taint002_fires_on_trinc_counter_shape(tmp_path):
    """TrInc's ``attest`` really does certify an unverified host digest -
    the paper's Section 4.1 insufficiency argument.  The analyzer flags
    the shape; the real ``repro.tee.counter`` carries a justified inline
    waiver instead of a fix.
    """
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        def counter_payload(signer, value, digest):
            return ("trinc", signer, value, digest)

        class Counter:
            def tee_attest(self, digest):
                self._value += 1
                payload = counter_payload(self._signer, self._value, digest)
                return self._sign(payload)
        """,
    )
    ids = analyze_ids(tmp_path, ["TAINT002"])
    assert ("TAINT002", 9) in ids


def test_taint002_stamped_emitters_are_exempt(tmp_path):
    """Commitments attest presentation-at-a-step, not certified state."""
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        def commitment_payload(signer, step):
            return ("commit", signer, step)

        class Checker:
            def tee_sign(self, digest):
                payload = commitment_payload(self._signer, digest)
                return self._create_unique_sign(payload)
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT002"]) == []


def test_taint002_multiline_call_suppressed_on_last_line(tmp_path):
    """Inline ignores work anywhere in a multiline node's span."""
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        def checkpoint_payload(signer, height):
            return (signer, height)

        class Checker:
            def tee_checkpoint(self, height):
                payload = checkpoint_payload(
                    self._signer,
                    height,
                )  # repro-lint: ignore[TAINT002]
                return payload
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT002"]) == []


# -- the PR-6 tee_checkpoint bug, re-detected from its historical shape ---------


def test_pr6_checkpoint_bug_is_redetected(tmp_path):
    """The exact historical shape: ``height``/``state_root`` certified
    behind an ordering guard, while ``block_hash``/``qc`` are properly
    pinned.  The analyzer must flag the unverified pair and only it.
    """
    make_module(
        tmp_path,
        "repro.tee.checker",
        """
        def checkpoint_payload(signer, height, block_hash, state_root):
            return ("ckpt", signer, height, block_hash, state_root)

        class CheckerService:
            def tee_checkpoint(self, height, block_hash, state_root, qc):
                if height <= self._ckpt_height:
                    raise ValueError("stale checkpoint")
                if qc.h_prep != block_hash:
                    raise ValueError("qc certifies a different block")
                if not self._verify_commitment(qc, block_hash):
                    raise ValueError("invalid commitment")
                self._ckpt_height = height
                payload = checkpoint_payload(
                    self._signer, height, block_hash, state_root
                )
                return self._sign(payload)
        """,
    )
    findings = run_lint([tmp_path], rules=["TAINT001", "TAINT002"])
    assert [(f.rule_id, f.line) for f in findings] == [
        ("TAINT001", 13),
        ("TAINT002", 14),
        ("TAINT002", 17),
    ]
    messages = " ".join(f.message for f in findings)
    assert "'height'" in messages
    assert "'state_root'" in messages
    assert "'block_hash'" not in messages
    assert "'qc'" not in messages


def test_fixed_checkpoint_shape_is_clean(tmp_path):
    """The post-fix shape: every certified input pinned or verified."""
    make_module(
        tmp_path,
        "repro.tee.checker",
        """
        def checkpoint_payload(signer, height, block_hash, state_root):
            return ("ckpt", signer, height, block_hash, state_root)

        class CheckerService:
            def tee_checkpoint(self, height, block_hash, state_root, qc):
                tip = block_hash
                if qc.h_prep != tip:
                    raise ValueError("qc certifies a different block")
                if not self._verify_commitment(qc, tip):
                    raise ValueError("invalid commitment")
                if height != len(self._log):
                    raise ValueError("height does not match the log")
                if state_root != self._fold():
                    raise ValueError("state root mismatch")
                self._ckpt_height = height
                payload = checkpoint_payload(self._signer, height, tip, state_root)
                return self._sign(payload)
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT001", "TAINT002"]) == []


# -- TAINT003: wire data handed to the TEE's adopting interface -----------------


def test_taint003_message_param_to_adopting_call(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.handler",
        """
        def on_checkpoint(replica, msg):
            replica.checker.tee_checkpoint(msg.height, msg.root)
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT003"]) == [("TAINT003", 3)]


def test_taint003_annotation_marks_message_source(tmp_path):
    make_module(
        tmp_path,
        "repro.core.msgs",
        """
        class CheckpointMsg:
            msg_type = "checkpoint"
        """,
    )
    make_module(
        tmp_path,
        "repro.protocols.handler",
        """
        def adopt(replica, note: CheckpointMsg):
            replica.checker.tee_install_checkpoint(note)
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT003"]) == [("TAINT003", 3)]


def test_taint003_host_verification_sanitizes(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.handler",
        """
        def on_checkpoint(replica, msg):
            if not verify_checkpoint(msg):
                raise ValueError(msg)
            replica.checker.tee_checkpoint(msg.height)
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT003"]) == []


def test_taint003_vote_path_is_exempt(tmp_path):
    """tee_sign/tee_prepare/tee_store self-verify and raise TEERefusal."""
    make_module(
        tmp_path,
        "repro.protocols.handler",
        """
        def on_vote(replica, msg):
            replica.checker.tee_sign(msg.digest)
        """,
    )
    assert analyze_ids(tmp_path, ["TAINT003"]) == []


def test_taint003_propagates_through_helper(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.handler",
        """
        def adopt(replica, msg):
            install(replica, msg.height)

        def install(replica, height):
            replica.checker.tee_checkpoint(height)
        """,
    )
    findings = run_lint([tmp_path], rules=["TAINT003"])
    assert [(f.rule_id, f.line) for f in findings] == [("TAINT003", 3)]
    assert "via" in findings[0].message


# -- PURE001/PURE002: transitive effect purity ----------------------------------


def test_pure001_nondeterminism_reachable_through_helper(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        class Machine:
            pass

        class Proto(Machine):
            def on_timer(self, time):
                return self._stamp(time)

            def _stamp(self, time):
                return time.time()
        """,
    )
    findings = run_lint([tmp_path], rules=["PURE001"])
    assert [(f.rule_id, f.line) for f in findings] == [("PURE001", 10)]
    assert "Proto.on_timer" in findings[0].message


def test_pure001_crosses_module_boundaries(tmp_path):
    make_module(
        tmp_path,
        "repro.core.util",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        from repro.core.util import stamp

        class Machine:
            pass

        class Proto(Machine):
            def on_message(self):
                return stamp()
        """,
    )
    findings = run_lint([tmp_path], rules=["PURE001"])
    assert [(f.rule_id, f.line) for f in findings] == [("PURE001", 5)]
    assert findings[0].path.endswith("util.py")


def test_pure002_io_from_declared_entry_point(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        class Machine:
            pass

        class Proto(Machine):
            ENTRY_POINTS = ("on_sync",)

            def on_sync(self):
                return open("/tmp/state")
        """,
    )
    assert analyze_ids(tmp_path, ["PURE002"]) == [("PURE002", 9)]


def test_pure_walk_reaches_tabled_handlers(tmp_path):
    """dispatch() routes through HANDLERS, so the names it holds are entries."""
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        import time

        class Machine:
            pass

        class Proto(Machine):
            HANDLERS = {"vote": ("_handle_vote", "_votes"), int: "_handle_int"}

            def dispatch(self, payload):
                entry = self._handlers.get(type(payload))
                entry[0](self, payload)

            def _handle_vote(self, payload, collector):
                return time.time()

            def _handle_int(self, payload):
                return open("/tmp/state")

            def _untabled(self):
                return time.monotonic()
        """,
    )
    assert analyze_ids(tmp_path, ["PURE001", "PURE002"]) == [("PURE001", 15), ("PURE002", 18)]


def test_pure_walk_follows_class_valued_component_declarations(tmp_path):
    """``self.CHECKER(...)`` constructs whatever class a subclass declares."""
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        import time

        class Machine:
            pass

        class Checker:
            def __init__(self):
                self.born = 0

        class WallClockChecker(Checker):
            def __init__(self):
                self.born = time.time()

        class Base(Machine):
            CHECKER = None

            def recover(self):
                self.checker = self.CHECKER()

        class Proto(Base):
            CHECKER = WallClockChecker
        """,
    )
    assert analyze_ids(tmp_path, ["PURE001"]) == [("PURE001", 13)]


def test_pure_walk_reaches_an_override_composed_in_at_runtime(tmp_path):
    """A behaviour subclasses the chassis, not the protocol it is composed
    in front of: the protocol's ``self._propose`` still reaches its override."""
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        import time

        class Machine:
            pass

        class Chassis(Machine):
            pass

        class Proto(Chassis):
            HANDLERS = {"vote": "_handle_vote"}

            def _handle_vote(self):
                self._propose()

            def _propose(self):
                pass

        class Silent(Chassis):
            def _propose(self):
                return time.time()
        """,
    )
    assert analyze_ids(tmp_path, ["PURE001"]) == [("PURE001", 21)]


def test_pure001_still_sees_an_attack_behaviour(tmp_path):
    """Plant a wall-clock read in the real silent leader's ``_propose``: the
    registry composes it at runtime, and the walk reaches it all the same."""
    tree = tmp_path / "repro"
    shutil.copytree(REPO_SRC / "repro", tree, ignore=shutil.ignore_patterns("__pycache__"))
    behaviours = tree / "adversary" / "behaviors.py"
    source = behaviours.read_text()
    counted = "        self.withheld_proposals += 1\n"
    assert source.count(counted) == 1
    behaviours.write_text(source.replace(counted, counted + "        time.time()\n"))
    planted = behaviours.read_text().splitlines().index("        time.time()") + 1
    findings = run_lint([tmp_path], rules=["PURE001"])
    assert [(Path(f.path).name, f.line) for f in findings] == [("behaviors.py", planted)]
    assert "SilentLeader._propose" in findings[0].message


def test_pure_walk_stops_at_runtime_host_boundary(tmp_path):
    """Crossing into repro.sim/runtime hosts is the by-design seam."""
    make_module(
        tmp_path,
        "repro.sim.host",
        """
        def run_io():
            return open("state")
        """,
    )
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        from repro.sim.host import run_io

        class Machine:
            pass

        class Proto(Machine):
            def on_timer(self):
                return run_io()
        """,
    )
    assert analyze_ids(tmp_path, ["PURE001", "PURE002"]) == []


def test_pure001_seeded_random_is_exempt(tmp_path):
    """random.Random(seed) is deterministic; argless Random() is not."""
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        import random

        class Machine:
            pass

        class Proto(Machine):
            def on_message(self, seed):
                gen = random.Random(seed)
                return random.Random()
        """,
    )
    assert analyze_ids(tmp_path, ["PURE001"]) == [("PURE001", 10)]


# -- ASYNC001/ASYNC002: await races ---------------------------------------------


def test_async001_read_modify_write_across_await(tmp_path):
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        import asyncio

        class Net:
            async def close(self):
                tasks = list(self._tasks)
                await asyncio.gather(*tasks)
                self._tasks.clear()
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC001"]) == [("ASYNC001", 8)]


def test_async001_detach_before_await_is_clean(tmp_path):
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        import asyncio

        class Net:
            async def close(self):
                tasks = list(self._tasks)
                self._tasks.clear()
                await asyncio.gather(*tasks)
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC001"]) == []


def test_async001_lock_spanning_read_and_write_is_clean(tmp_path):
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        import asyncio

        class Net:
            async def close(self):
                async with self._lock:
                    tasks = list(self._tasks)
                    await asyncio.gather(*tasks)
                    self._tasks.clear()
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC001"]) == []


def test_async001_tracks_nonlocal_closure_state(tmp_path):
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        async def outer(gather):
            count = 0

            async def bump():
                nonlocal count
                snapshot = count
                await gather()
                count = snapshot + 1
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC001"]) == [("ASYNC001", 9)]


def test_async001_mutator_calls_are_writes_not_reads(tmp_path):
    """set.add of independent elements is not a stale-read hazard."""
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        class Net:
            async def register(self, task):
                self._tasks.add(task)
                await task
                self._tasks.add(task)
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC001"]) == []


def test_async001_inline_suppression(tmp_path):
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        class Net:
            async def close(self):
                tasks = list(self._tasks)
                await tasks[0]
                self._tasks.clear()  # repro-lint: ignore[ASYNC001]
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC001"]) == []


def test_async002_await_in_loop_under_lock(tmp_path):
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        class Net:
            async def drain(self):
                async with self._lock:
                    for item in self._items:
                        await item.flush()
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC002"]) == [("ASYNC002", 6)]


def test_async002_non_lock_context_is_clean(tmp_path):
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        class Net:
            async def drain(self):
                async with self._session:
                    for item in self._items:
                        await item.flush()
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC002"]) == []


def test_async002_async_for_header_is_the_loop_itself(tmp_path):
    make_module(
        tmp_path,
        "repro.runtime.netty",
        """
        class Net:
            async def drain(self):
                async with self._lock:
                    async for item in self._queue:
                        pass
        """,
    )
    assert analyze_ids(tmp_path, ["ASYNC002"]) == []


# -- registry and CLI -----------------------------------------------------------


def test_registry_has_all_analyze_families():
    ids = set(all_rule_ids())
    assert {"TAINT001", "TAINT002", "TAINT003"} <= ids
    assert {"PURE001", "PURE002"} <= ids
    assert {"ASYNC001", "ASYNC002"} <= ids


def test_unknown_analyze_rule_raises(tmp_path):
    with pytest.raises(KeyError):
        run_lint([tmp_path], rules=["NOPE999"])


def test_cli_analyze_clean_tree_exits_zero(tmp_path, capsys):
    make_module(tmp_path, "repro.core.clean", "VALUE = 1\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_analyze_violation_exits_nonzero(tmp_path, capsys):
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, height):
                self._height = height
        """,
    )
    assert main(["lint", str(tmp_path)]) == 1
    assert "TAINT001" in capsys.readouterr().out


def test_cli_analyze_json_format(tmp_path, capsys):
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, height):
                self._height = height
        """,
    )
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "TAINT001"


def test_cli_analyze_rule_filter(tmp_path):
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, height):
                self._height = height
        """,
    )
    assert main(["lint", str(tmp_path), "--rule", "ASYNC001"]) == 0


def test_cli_analyze_unknown_rule_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--rule", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_analyze_write_baseline_then_clean(tmp_path, capsys):
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, height):
                self._height = height
        """,
    )
    baseline = tmp_path / "baseline.json"
    assert main(
        ["lint", str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
    ) == 0
    capsys.readouterr()
    assert main(["lint", str(tmp_path), "--baseline", str(baseline)]) == 0
    assert main(
        ["lint", str(tmp_path), "--baseline", str(baseline), "--no-baseline"]
    ) == 1


def test_cli_analyze_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out.split()
    assert "TAINT001" in out and "ASYNC002" in out


# -- the meta-tests: this repository passes its own dataflow analysis -----------


def test_repo_src_has_zero_analyze_findings():
    findings = run_lint([REPO_SRC], rules=DATAFLOW_RULES)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_repo_analyze_baseline_is_committed_and_empty():
    """The dataflow rules share the one committed lint baseline."""
    assert not (REPO_SRC.parent / ".repro-analyze-baseline.json").exists()
    baseline_path = REPO_SRC.parent / BASELINE_DEFAULT
    assert baseline_path.exists()
    assert load_baseline(baseline_path) == set()
