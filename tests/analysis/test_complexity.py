"""Tests for the Table 1 closed forms."""

import pytest

from repro.analysis.complexity import TABLE1_ROWS, expected_messages, table1
from repro.errors import ConfigError
from pathlib import Path

from repro.protocols.registry import (
    CHASSIS_HOOKS,
    HOOK_REASONS,
    SPECS,
    grid_markdown,
    overridden_hooks,
)


def test_table1_has_paper_rows():
    names = {row.name for row in TABLE1_ROWS}
    assert {"pbft", "fastbft", "minbft", "cheapbft", "hotstuff", "hotstuff-m",
            "damysus", "chained-damysus"} == names


@pytest.mark.parametrize(
    "name,f,expected",
    [
        ("pbft", 1, 36),  # 18+15+3
        ("minbft", 1, 12),  # 4+6+2
        ("cheapbft", 1, 8),  # 2+4+2
        ("fastbft", 1, 11),  # 6+5
        ("hotstuff", 1, 32),  # 24+8
        ("damysus", 1, 18),  # 12+6
        ("chained-damysus", 1, 18),
        ("hotstuff", 10, 248),
        ("damysus", 10, 126),
    ],
)
def test_normal_case_message_formulas(name, f, expected):
    assert expected_messages(name, f) == expected


def test_ablation_protocol_formulas():
    # Damysus-C: 8 steps x (2f+1); Damysus-A: 6 steps x (3f+1).
    assert expected_messages("damysus-c", 1) == 24
    assert expected_messages("damysus-a", 1) == 24
    assert expected_messages("damysus-c", 2) == 40
    assert expected_messages("damysus-a", 2) == 42
    for f in (1, 2, 10):
        assert expected_messages("fast-hotstuff", f) == 18 * f + 6  # 6 steps x (3f+1)
        assert expected_messages("chained-hotstuff", f) == 24 * f + 8  # HotStuff's row


def test_damysus_strictly_cheaper_than_hotstuff():
    for f in range(1, 50):
        assert expected_messages("damysus", f) < expected_messages("hotstuff", f)
        assert expected_messages("damysus", f) < expected_messages("damysus-c", f)
        assert expected_messages("damysus", f) < expected_messages("damysus-a", f)


def test_view_change_formulas():
    rows = {row["protocol"]: row for row in table1(1)}
    assert rows["pbft"]["msgs_view_change"] == 16  # 9+6+1
    assert rows["minbft"]["msgs_view_change"] == 15  # 8+6+1
    assert rows["damysus"]["msgs_view_change"] is None  # streamlined


def test_unknown_protocol_raises():
    with pytest.raises(ConfigError):
        expected_messages("paxos", 1)


def test_table1_rows_have_presentation_fields():
    for row in table1(3):
        assert row["replicas"]
        assert row["comm_steps"]
        assert isinstance(row["msgs_normal"], int)
        assert isinstance(row["optimistic"], bool)


# -- the declared grid (protocol classes) vs the docs ----------------------------


def test_every_hook_override_is_a_listed_behavioural_difference():
    overridden = {(name, hook) for name in SPECS for hook in overridden_hooks(name)}
    assert overridden == set(HOOK_REASONS)
    scaffolding = {"dispatch", "on_stale", "prune_state"}
    assert scaffolding <= set(CHASSIS_HOOKS)
    assert not {hook for _, hook in overridden} & scaffolding


def test_docs_grid_is_generated_from_the_declarations():
    text = (Path(__file__).resolve().parents[2] / "docs" / "protocols.md").read_text()
    begin, end = "<!-- grid:begin -->\n", "\n<!-- grid:end -->"
    assert text[text.index(begin) + len(begin) : text.index(end)] == grid_markdown()
