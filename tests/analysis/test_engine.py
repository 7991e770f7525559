"""Edge-case tests for the rule engine of ``repro lint``.

Every rule family rides on one finding/suppression/baseline core
(:mod:`repro.analysis.engine`); these tests pin the corners of that
behaviour: suppression comments on decorated and multiline nodes, one
ignore tag for every family, baseline write stability, and unknown-rule
handling.
"""

from __future__ import annotations

import pytest

from repro.analysis.engine import Finding, load_baseline, run_lint, write_baseline
from tests.analysis.test_lint import make_module


# -- suppression spans ----------------------------------------------------------


def test_suppression_on_last_line_of_multiline_call(tmp_path):
    """A Call node spans physical lines; the ignore can sit on any of them."""
    make_module(
        tmp_path,
        "repro.sim.stampy",
        """
        def stamp(time):
            return time.time(
            )  # repro-lint: ignore[DET002]
        """,
    )
    assert run_lint([tmp_path], rules=["DET002"]) == []


def test_suppression_on_decorator_line_of_decorated_class(tmp_path):
    """A decorated class reads - to humans - from its first decorator."""
    make_module(
        tmp_path,
        "repro.core.messages",
        """
        @frozen  # repro-lint: ignore[MSG001]
        class OrphanMsg:
            msg_type = "orphan"
        """,
    )
    make_module(tmp_path, "repro.protocols.proto", "def dispatch(m):\n    return m\n")
    assert run_lint([tmp_path], rules=["MSG001"]) == []


def test_decorated_class_without_suppression_still_fires(tmp_path):
    make_module(
        tmp_path,
        "repro.core.messages",
        """
        @frozen
        class OrphanMsg:
            msg_type = "orphan"
        """,
    )
    make_module(tmp_path, "repro.protocols.proto", "def dispatch(m):\n    return m\n")
    findings = run_lint([tmp_path], rules=["MSG001"])
    assert [(f.rule_id, f.line) for f in findings] == [("MSG001", 3)]


def test_comment_in_compound_statement_body_does_not_silence_header(tmp_path):
    """Suppressing a finding about a class must happen on its header."""
    make_module(
        tmp_path,
        "repro.core.messages",
        """
        class OrphanMsg:
            msg_type = "orphan"  # repro-lint: ignore[MSG001]
        """,
    )
    make_module(tmp_path, "repro.protocols.proto", "def dispatch(m):\n    return m\n")
    findings = run_lint([tmp_path], rules=["MSG001"])
    assert [(f.rule_id, f.line) for f in findings] == [("MSG001", 2)]


def test_lint_and_analyze_ignore_tags_are_interchangeable(tmp_path):
    """One engine, one suppression story: one tag silences per-file and
    whole-program rules alike."""
    make_module(
        tmp_path,
        "repro.sim.suppressed",
        """
        import random  # repro-lint: ignore[DET001]
        """,
    )
    assert run_lint([tmp_path], rules=["DET001"]) == []
    make_module(
        tmp_path,
        "repro.tee.fixture",
        """
        class Checker:
            def tee_adopt(self, height):
                self._height = height  # repro-lint: ignore[TAINT001]
        """,
    )
    assert run_lint([tmp_path], rules=["TAINT001"]) == []


def test_the_retired_analyze_tag_silences_nothing(tmp_path):
    make_module(
        tmp_path,
        "repro.sim.suppressed",
        """
        import random  # repro-analyze: ignore[DET001]
        """,
    )
    assert [f.rule_id for f in run_lint([tmp_path], rules=["DET001"])] == ["DET001"]


# -- baseline stability ---------------------------------------------------------


def test_write_baseline_is_order_independent_and_stable(tmp_path):
    make_module(
        tmp_path,
        "repro.sim.legacy",
        """
        import random
        import secrets
        """,
    )
    findings = run_lint([tmp_path], rules=["DET001"])
    assert len(findings) == 2
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_baseline(first, findings)
    write_baseline(second, list(reversed(findings)))
    assert first.read_text() == second.read_text()
    # Rewriting the same findings is byte-identical (no churn in diffs).
    before = first.read_text()
    write_baseline(first, findings)
    assert first.read_text() == before


def test_baseline_roundtrip_preserves_waivers(tmp_path):
    make_module(tmp_path, "repro.sim.legacy", "import random\n")
    findings = run_lint([tmp_path])
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, findings)
    assert load_baseline(baseline) == {f.key() for f in findings}
    assert run_lint([tmp_path], baseline=load_baseline(baseline)) == []


def test_finding_span_fields_stay_out_of_key_and_json():
    finding = Finding(
        "DET001", "src/x.py", 3, 1, "import of 'random'",
        span_start=2, span_end=5,
    )
    assert finding.key() == "src/x.py::DET001::3"
    assert "span" not in str(finding.to_json())


# -- unknown-rule handling ------------------------------------------------------


def test_unknown_rule_error_names_the_known_rules(tmp_path):
    with pytest.raises(KeyError) as excinfo:
        run_lint([tmp_path], rules=["NOPE999"])
    assert "NOPE999" in str(excinfo.value)
    assert "DET001" in str(excinfo.value)
    with pytest.raises(KeyError) as excinfo:
        run_lint([tmp_path], rules=["NOPE999"])
    assert "TAINT001" in str(excinfo.value)


def test_rule_filter_is_case_insensitive(tmp_path):
    make_module(tmp_path, "repro.sim.legacy", "import random\n")
    findings = run_lint([tmp_path], rules=["det001"])
    assert [f.rule_id for f in findings] == ["DET001"]
