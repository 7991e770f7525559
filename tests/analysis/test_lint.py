"""Self-check tests for the ``repro lint`` invariant linter.

Each rule gets a small fixture module containing exactly one deliberate
violation; the tests assert the precise rule id and line.  A meta-test
runs the linter over the real ``src/`` tree and requires zero findings,
so the invariants the linter encodes are enforced on this repository
itself.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import (
    Finding,
    all_rule_ids,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def make_module(root: Path, module: str, body: str) -> Path:
    """Write ``body`` as ``<root>/<module as path>.py`` with package inits."""
    parts = module.split(".")
    directory = root
    for part in parts[:-1]:
        directory = directory / part
        directory.mkdir(exist_ok=True)
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("")
    path = directory / f"{parts[-1]}.py"
    path.write_text(textwrap.dedent(body))
    return path


def lint_ids(root: Path, rules: list[str] | None = None) -> list[tuple[str, int]]:
    findings = run_lint([root], rules=rules)
    return [(f.rule_id, f.line) for f in findings]


# -- TEE trust-boundary rules ---------------------------------------------------


def test_tee001_private_attribute_access(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.bad",
        """
        def leak(replica):
            return replica.checker._preph
        """,
    )
    assert lint_ids(tmp_path, ["TEE001"]) == [("TEE001", 3)]


def test_tee001_known_private_member_any_receiver(tmp_path):
    make_module(
        tmp_path,
        "repro.sim.bad",
        """
        def leak(component):
            return component._signer
        """,
    )
    assert lint_ids(tmp_path, ["TEE001"]) == [("TEE001", 3)]


def test_tee001_allows_own_private_attributes(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.fine",
        """
        class Replica:
            def __init__(self):
                self._signer = 1

            def get(self):
                return self._signer
        """,
    )
    assert lint_ids(tmp_path, ["TEE001"]) == []


def test_tee001_allowed_inside_tee_package(tmp_path):
    make_module(
        tmp_path,
        "repro.tee.internal",
        """
        def seal(checker):
            return checker._signer
        """,
    )
    assert lint_ids(tmp_path, ["TEE001"]) == []


def test_tee002_forged_tee_signature(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.forge",
        """
        def forge(scheme, tee_signer_id, Signature):
            return Signature(tee_signer_id(3), b"x", "hmac")
        """,
    )
    assert lint_ids(tmp_path, ["TEE002"]) == [("TEE002", 3)]


def test_tee002_scheme_sign_with_tee_id(tmp_path):
    make_module(
        tmp_path,
        "repro.adversary.forge",
        """
        def forge(scheme, tee_signer_id):
            return scheme.sign(tee_signer_id(0), b"payload")
        """,
    )
    assert lint_ids(tmp_path, ["TEE002"]) == [("TEE002", 3)]


def test_tee003_trusted_state_mutation(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.mutate",
        """
        def rewind(replica, step):
            replica.checker.step = step
        """,
    )
    assert lint_ids(tmp_path, ["TEE003"]) == [("TEE003", 3)]


def test_tee003_rebinding_component_slot_is_fine(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.rebind",
        """
        def restore(replica, fresh):
            replica.checker = fresh
        """,
    )
    assert lint_ids(tmp_path, ["TEE003"]) == []


# -- determinism rules ----------------------------------------------------------


def test_det001_banned_import(tmp_path):
    make_module(
        tmp_path,
        "repro.sim.entropy",
        """
        import random

        def draw():
            return random.random()
        """,
    )
    assert ("DET001", 2) in lint_ids(tmp_path, ["DET001"])


def test_det001_from_import_and_os_urandom(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.clock",
        """
        from time import monotonic
        from os import urandom
        """,
    )
    assert lint_ids(tmp_path, ["DET001"]) == [("DET001", 2), ("DET001", 3)]


def test_det001_rng_module_exempt(tmp_path):
    make_module(
        tmp_path,
        "repro.core.rng",
        """
        import random
        """,
    )
    assert lint_ids(tmp_path, ["DET001"]) == []


def test_det001_unrestricted_package_exempt(tmp_path):
    make_module(
        tmp_path,
        "repro.bench.wallclock",
        """
        import time
        """,
    )
    assert lint_ids(tmp_path, ["DET001"]) == []


def test_det002_banned_calls(tmp_path):
    make_module(
        tmp_path,
        "repro.analysis.sampler",
        """
        def stamp(time, datetime, random):
            a = time.time()
            b = datetime.now()
            c = random.choice([1, 2])
            return a, b, c
        """,
    )
    assert lint_ids(tmp_path, ["DET002"]) == [
        ("DET002", 3),
        ("DET002", 4),
        ("DET002", 5),
    ]


def test_det003_id_and_hash(tmp_path):
    make_module(
        tmp_path,
        "repro.tee.salted",
        """
        def key(obj):
            return id(obj) ^ hash("salted")
        """,
    )
    assert lint_ids(tmp_path, ["DET003"]) == [("DET003", 3), ("DET003", 3)]


# -- message-exhaustiveness rules -----------------------------------------------


_ROUTED_BY_ISINSTANCE = """
    def on_message(payload):
        if isinstance(payload, UsedMsg):
            return True
    """

_HANDLED_BY_TABLE = """
    class Replica:
        HANDLERS = {UsedMsg: "_handle_used"}
    """

_HANDLED_BY_KIND_KEY = """
    class Base:
        HANDLERS: dict = {}

    class Replica(Base):
        HANDLERS = {**Base.HANDLERS, (UsedMsg, KIND_VOTE): ("_combine", "_votes")}
    """

_HANDLED_BY_SERVICE_TABLE = """
    class Client:
        SERVICE_HANDLERS: dict = {UsedMsg: "_handle_used"}
    """


@pytest.mark.parametrize(
    "protocol_source",
    [_ROUTED_BY_ISINSTANCE, _HANDLED_BY_TABLE, _HANDLED_BY_KIND_KEY, _HANDLED_BY_SERVICE_TABLE],
)
def test_msg001_unhandled_message_type(tmp_path, protocol_source):
    """Handled means: tabled in a HANDLERS or SERVICE_HANDLERS declaration."""
    make_module(
        tmp_path,
        "repro.core.messages",
        """
        class OrphanMsg:
            msg_type = "orphan"

        class UsedMsg:
            msg_type = "used"
        """,
    )
    make_module(tmp_path, "repro.protocols.proto", protocol_source)
    expected = [("MSG001", 2)]
    if protocol_source is _ROUTED_BY_ISINSTANCE:
        expected.append(("MSG001", 5))  # an isinstance is not a dispatch
    assert lint_ids(tmp_path, ["MSG001"]) == expected


def test_msg001_a_table_under_another_name_does_not_count(tmp_path):
    make_module(
        tmp_path,
        "repro.core.messages",
        """
        class UsedMsg:
            msg_type = "used"
        """,
    )
    make_module(
        tmp_path,
        "repro.protocols.proto",
        """
        class Replica:
            ROUTES = {UsedMsg: "_handle_used"}
        """,
    )
    assert lint_ids(tmp_path, ["MSG001"]) == [("MSG001", 2)]


def test_msg002_sent_but_unhandled(tmp_path):
    make_module(
        tmp_path,
        "repro.core.messages",
        """
        class PingMsg:
            msg_type = "ping"
        """,
    )
    make_module(
        tmp_path,
        "repro.protocols.sender",
        """
        def send(broadcast):
            broadcast(PingMsg())
        """,
    )
    ids = lint_ids(tmp_path, ["MSG002"])
    assert ids == [("MSG002", 3)]


def test_msg003_non_exhaustive_phase_match(tmp_path):
    make_module(
        tmp_path,
        "repro.core.phases",
        """
        import enum

        class Phase(enum.Enum):
            NEW_VIEW = "nv_p"
            PREPARE = "prep_p"
            PRECOMMIT = "pcom_p"
        """,
    )
    make_module(
        tmp_path,
        "repro.protocols.phasey",
        """
        def route(phase, Phase):
            match phase:
                case Phase.NEW_VIEW:
                    return 1
                case Phase.PREPARE:
                    return 2
        """,
    )
    assert lint_ids(tmp_path, ["MSG003"]) == [("MSG003", 3)]


def test_msg003_wildcard_is_exhaustive(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.phasey",
        """
        def route(phase, Phase):
            match phase:
                case Phase.NEW_VIEW:
                    return 1
                case _:
                    raise ValueError(phase)
        """,
    )
    assert lint_ids(tmp_path, ["MSG003"]) == []


# -- ARCH layering rules --------------------------------------------------------


def test_arch001_core_must_not_import_sim(tmp_path):
    make_module(
        tmp_path,
        "repro.core.leaky",
        """
        from repro.sim.events import Simulator

        def build():
            return Simulator()
        """,
    )
    assert lint_ids(tmp_path, ["ARCH001"]) == [("ARCH001", 2)]


def test_arch002_tee_must_not_import_asyncio_runtime(tmp_path):
    make_module(
        tmp_path,
        "repro.tee.leaky",
        """
        import repro.runtime.asyncio_net
        """,
    )
    assert lint_ids(tmp_path, ["ARCH002"]) == [("ARCH002", 2)]


def test_arch003_protocols_must_not_import_sim(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.leaky",
        """
        def lazy():
            from repro.sim.network import Network  # laziness is no excuse

            return Network
        """,
    )
    assert lint_ids(tmp_path, ["ARCH003"]) == [("ARCH003", 3)]


def test_arch003_submodule_via_from_parent_import(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.leaky",
        """
        from repro.runtime import asyncio_net
        """,
    )
    assert lint_ids(tmp_path, ["ARCH003"]) == [("ARCH003", 2)]


def test_arch_rules_allow_effect_vocabulary(tmp_path):
    make_module(
        tmp_path,
        "repro.protocols.fine",
        """
        from repro.core.clock import Clock
        from repro.runtime.effects import Send
        from repro.runtime.machine import Machine
        """,
    )
    assert lint_ids(tmp_path, ["ARCH001", "ARCH002", "ARCH003"]) == []


def test_arch_rules_ignore_other_layers(tmp_path):
    make_module(
        tmp_path,
        "repro.bench.hosty",
        """
        from repro.sim.events import Simulator
        """,
    )
    assert lint_ids(tmp_path, ["ARCH001", "ARCH002", "ARCH003"]) == []


_SHIM = """
\"\"\"Compatibility shim: the implementation moved to the core.\"\"\"

from __future__ import annotations

from repro.core.rng import RngStream, derive_seed

__all__ = ["RngStream", "derive_seed"]
"""


def test_arch004_module_of_re_exports_only(tmp_path):
    make_module(tmp_path, "repro.sim.moved", _SHIM)
    assert lint_ids(tmp_path, ["ARCH004"]) == [("ARCH004", 6)]


def test_arch004_flags_a_package_init_of_re_exports(tmp_path):
    """A package's ``__init__.py`` that forwards names is the same forwarding layer."""
    make_module(tmp_path, "repro.sim.__init__", _SHIM)
    assert lint_ids(tmp_path, ["ARCH004"]) == [("ARCH004", 6)]


@pytest.mark.parametrize(
    "module, body",
    [
        ("repro.__init__", _SHIM + '\n__version__ = "1.0.0"\n'),
        ("repro.sim.one_def", "from repro.core.rng import RngStream\n\nSEED = 7\n"),
        (
            "repro.sim.typed",
            "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n"
            "    from repro.core.rng import RngStream\n\n\n"
            "def draw(rng: 'RngStream') -> float:\n    return rng.random()\n",
        ),
        ("repro.sim.empty", '"""Nothing here yet."""\n'),
        ("repro.sim.__init__", '"""A package of its own modules."""\n'),
        ("elsewhere.shim", "from repro.core.rng import RngStream\n"),
    ],
    ids=[
        "init-defining-a-name", "one-definition", "type-checking-imports",
        "docstring-only", "init", "outside-repro",
    ],
)
def test_arch004_leaves_real_modules_alone(tmp_path, module, body):
    make_module(tmp_path, module, body)
    assert lint_ids(tmp_path, ["ARCH004"]) == []


# -- suppression, baseline, engine plumbing -------------------------------------


def test_inline_suppression_by_rule_id(tmp_path):
    make_module(
        tmp_path,
        "repro.sim.suppressed",
        """
        import random  # repro-lint: ignore[DET001]
        """,
    )
    assert lint_ids(tmp_path, ["DET001"]) == []


def test_inline_suppression_wrong_rule_does_not_silence(tmp_path):
    make_module(
        tmp_path,
        "repro.sim.suppressed",
        """
        import random  # repro-lint: ignore[TEE001]
        """,
    )
    assert lint_ids(tmp_path, ["DET001"]) == [("DET001", 2)]


def test_bare_ignore_silences_all_rules(tmp_path):
    make_module(
        tmp_path,
        "repro.sim.suppressed",
        """
        import random  # repro-lint: ignore
        """,
    )
    assert lint_ids(tmp_path) == []


def test_skip_file_pragma(tmp_path):
    make_module(
        tmp_path,
        "repro.sim.skipped",
        """
        # repro-lint: skip-file
        import random
        """,
    )
    assert lint_ids(tmp_path) == []


def test_baseline_waives_and_write_baseline_roundtrip(tmp_path):
    path = make_module(
        tmp_path,
        "repro.sim.legacy",
        """
        import random

        SEED = 7
        """,
    )
    findings = run_lint([path])
    assert [f.rule_id for f in findings] == ["DET001"]
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings)
    waived = load_baseline(baseline_file)
    assert run_lint([path], baseline=waived) == []


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == set()


def test_unknown_rule_raises():
    with pytest.raises(KeyError):
        run_lint([REPO_SRC], rules=["NOPE999"])


def test_syntax_error_becomes_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    findings = run_lint([tmp_path])
    assert [f.rule_id for f in findings] == ["PARSE000"]


def test_registry_has_all_rule_families():
    ids = all_rule_ids()
    assert {"TEE001", "TEE002", "TEE003"} <= set(ids)
    assert {"DET001", "DET002", "DET003"} <= set(ids)
    assert {"MSG001", "MSG002", "MSG003"} <= set(ids)
    assert {"ARCH001", "ARCH002", "ARCH003", "ARCH004"} <= set(ids)


def test_finding_key_is_stable():
    finding = Finding("DET001", "src/x.py", 3, 1, "import of 'random'")
    assert finding.key() == "src/x.py::DET001::3"


# -- CLI ------------------------------------------------------------------------


def test_cli_lint_clean_tree_exits_zero(tmp_path, capsys):
    make_module(tmp_path, "repro.sim.clean", "VALUE = 1\n")
    assert main(["lint", str(tmp_path)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_lint_violation_exits_nonzero(tmp_path, capsys):
    make_module(tmp_path, "repro.sim.dirty", "import random\n")
    assert main(["lint", str(tmp_path)]) == 1
    assert "DET001" in capsys.readouterr().out


def test_cli_lint_json_format(tmp_path, capsys):
    make_module(tmp_path, "repro.sim.dirty", "import random\n\nSEED = 7\n")
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "DET001"


def test_cli_lint_rule_filter(tmp_path):
    make_module(tmp_path, "repro.sim.dirty", "import random\n")
    assert main(["lint", str(tmp_path), "--rule", "TEE001"]) == 0


def test_cli_lint_unknown_rule_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--rule", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_lint_write_baseline_then_clean(tmp_path, capsys):
    make_module(tmp_path, "repro.sim.dirty", "import random\n")
    baseline = tmp_path / "baseline.json"
    assert main(
        ["lint", str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
    ) == 0
    capsys.readouterr()
    assert main(["lint", str(tmp_path), "--baseline", str(baseline)]) == 0
    assert main(
        ["lint", str(tmp_path), "--baseline", str(baseline), "--no-baseline"]
    ) == 1


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out.split()
    assert "TEE001" in out and "MSG003" in out


def test_cli_lint_lists_every_rule_of_the_seven_families(capsys):
    """The one registry: the 13 per-file rules and the 7 whole-program ones."""
    assert main(["lint", "--list-rules"]) == 0
    assert capsys.readouterr().out.split() == [
        "ARCH001", "ARCH002", "ARCH003", "ARCH004", "ASYNC001", "ASYNC002",
        "DET001", "DET002", "DET003", "MSG001", "MSG002", "MSG003",
        "PURE001", "PURE002", "TAINT001", "TAINT002", "TAINT003",
        "TEE001", "TEE002", "TEE003",
    ]


def test_one_lint_run_reports_every_family(tmp_path, capsys):
    """One fixture breaks one rule of each family; one run finds all seven."""
    make_module(
        tmp_path,
        "repro.protocols.bad",
        """
        def leak(replica):
            return replica.checker._preph
        """,
    )
    make_module(tmp_path, "repro.sim.dirty", "import random\n")
    make_module(
        tmp_path,
        "repro.core.messages",
        """
        class OrphanMsg:
            msg_type = "orphan"
        """,
    )
    make_module(tmp_path, "repro.core.leaky", "from repro.sim.events import Simulator\n")
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, height):
                self._height = height
        """,
    )
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
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    found = {f["rule"] for f in json.loads(capsys.readouterr().out)["findings"]}
    families = {rule.rstrip("0123456789") for rule in found}
    assert families == {"TEE", "DET", "MSG", "ARCH", "TAINT", "PURE", "ASYNC"}
    assert {"TEE001", "DET001", "MSG001", "ARCH001", "TAINT001", "PURE001", "ASYNC001"} <= found


# -- the meta-test: this repository obeys its own invariants --------------------


def test_repo_src_has_zero_findings():
    findings = run_lint([REPO_SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_repo_baseline_is_committed_and_empty():
    baseline_path = REPO_SRC.parent / ".repro-lint-baseline.json"
    assert baseline_path.exists()
    assert load_baseline(baseline_path) == set()
