"""Net-chaos: a fault plan played on real subprocesses, judged by verdicts.

One genuinely multi-process test (the path ``repro net-chaos --adversary``
drives, without the adversary) plus pure checks of the plan walk and the
fork rule, and of the orchestration pieces.
"""

from pathlib import Path

import pytest

from repro.core.faults import FaultPlan, LinkFaultRule, PartitionRule, net_chaos_plans
from repro.errors import ConfigError
from repro.runtime.asyncio_net import _load_fault_rules
from repro.runtime.resilience.netchaos import ForkRule, run_net_chaos, timeline
from repro.runtime.resilience.supervisor import ReplicaProcessSpec
from repro.runtime.resilience.transport import decision_digest
from tests.conftest import tcp_config


def test_spec_argv_carries_the_resilience_flags(tmp_path):
    spec = ReplicaProcessSpec(
        pid=2,
        config=tcp_config(),
        n=4,
        base_port=5000,
        seal_dir=tmp_path / "seal",
        health_file=tmp_path / "h.json",
        fault_spec=tmp_path / "faults.json",
    )
    argv = spec.argv()
    assert argv[2:4] == ["repro", "serve"]
    for flag in ("--seal-dir", "--health-file", "--health-interval", "--fault-spec"):
        assert flag in argv
    # Respawning must reuse identical arguments.
    assert argv == spec.argv()


def test_spec_argv_omits_unset_options():
    argv = ReplicaProcessSpec(pid=0, config=tcp_config(), n=4, base_port=5000).argv()
    assert "--seal-dir" not in argv and "--fault-spec" not in argv


def test_net_chaos_needs_a_partitionable_cluster():
    with pytest.raises(ConfigError):
        run_net_chaos("damysus", 3)


def test_unknown_plan_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown plan"):
        run_net_chaos("damysus", 4, plan="stormy")


# -- the fault-spec file a replica reloads --------------------------------------

#: Specs that once escaped the reader as AttributeError, SimulationError,
#: RecursionError, OverflowError or UnicodeDecodeError.
MALFORMED_SPECS = {
    "list": b"[]",
    "int-rule": b'{"rules": [1]}',
    "unknown-kind": b'{"rules": [{"kind": "zebra"}]}',
    "deep": b"[" * 100_000,
    "bad-number": b'{"rules": [{"kind": "link", "drop_prob": "x"}]}',
    "huge-number": b'{"rules": [{"kind": "partition", "groups": [], "heal_ms": '
    + b"9" * 400 + b"}]}",
    "bad-utf8": b"\xff{",
    "rules-int": b'{"rules": 5}',
}


@pytest.mark.parametrize("spec", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_malformed_fault_spec_is_one_config_error(spec):
    with pytest.raises(ConfigError, match="fault"):
        FaultPlan.from_rules_spec(spec)


def test_replica_reads_a_malformed_fault_spec_as_no_rules(tmp_path):
    """At start-up and on every reload: never a dead ``repro serve`` or a
    silently ended reload task."""
    path = tmp_path / "faults.json"
    for spec in MALFORMED_SPECS.values():
        path.write_bytes(spec)
        assert _load_fault_rules(path) == ()
    path.write_text(FaultPlan().lossy_links(0.1).rules_spec())
    assert _load_fault_rules(path) == (LinkFaultRule(drop_prob=0.1),)
    assert _load_fault_rules(tmp_path / "absent.json") == ()


# -- the plan walk (no processes) ---------------------------------------------


def _rules(spec):
    return FaultPlan.from_rules_spec(spec).rules


def test_timeline_kills_and_spawns_at_the_crash_instants():
    steps = timeline(net_chaos_plans(4)["partition"])
    assert [(t, action) for t, action, _ in steps] == [
        (0.0, "faults"),
        (2_000.0, "faults"),
        (2_000.0, "kill"),
        (5_000.0, "spawn"),
        (8_000.0, "faults"),
        (14_000.0, "faults"),
    ]
    assert [arg for _, action, arg in steps if action != "faults"] == [3, 3]


def test_timeline_installs_the_active_rules_without_their_windows():
    specs = [arg for _, action, arg in timeline(net_chaos_plans(4)["partition"])
             if action == "faults"]
    assert _rules(specs[0]) == [LinkFaultRule(drop_prob=0.05)]  # loss until the kill
    assert _rules(specs[1]) == []
    assert _rules(specs[2]) == [
        PartitionRule(groups=(frozenset({0, 1}), frozenset({2, 3})))
    ]
    assert _rules(specs[3]) == []


def test_timeline_skips_instants_where_the_rule_set_does_not_change():
    plan = (
        FaultPlan()
        .lossy_links(0.1, start_ms=0.0, end_ms=1_000.0)
        .lossy_links(0.1, start_ms=1_000.0, end_ms=3_000.0)
        .crash(1, at_ms=500.0)
    )
    steps = timeline(plan)
    assert [(t, action) for t, action, _ in steps] == [
        (0.0, "faults"),
        (500.0, "kill"),  # a permanent crash: no spawn
        (3_000.0, "faults"),
    ]


def test_fork_rule_flags_two_roots_at_one_height():
    rule = ForkRule()
    rule.observe(0, {"ledger_height": 5, "state_root": "aa"})
    rule.observe(1, {"ledger_height": 5, "state_root": "aa"})
    rule.observe(1, {"ledger_height": 6, "state_root": "bb"})
    assert rule.violation is None
    rule.observe(2, {"ledger_height": 6, "state_root": "cc"})
    assert rule.violation is not None
    assert "replicas 1 and 2" in rule.violation and "height 6" in rule.violation


# -- the real thing -----------------------------------------------------------


def test_net_chaos_kill_restart_subprocess_roundtrip(tmp_path):
    """The restart plan on 4 OS processes: SIGKILL one, respawn it from
    durable sealed state; the cluster must pass a campaign cell's verdict.
    The partition and catch-up plans run in the CI smoke job."""
    report = run_net_chaos(
        "damysus",
        4,
        plan="restart",
        seed=3,
        commit_bound_s=60.0,
        run_dir=tmp_path / "run",
        keep_artifacts=True,
    )
    assert report.verdict == "PASS", report.describe()
    assert report.restored_from_seal
    assert sorted(report.heights_at_heal) == [0, 1, 2]  # the victim was just respawned
    # Artifacts stayed on disk for post-mortems.
    run_dir = Path(report.run_dir)
    assert (run_dir / "faults.json").exists()
    assert any((run_dir / "seal").iterdir())
    assert len(list((run_dir / "logs").glob("replica-*.log"))) == 4
    # The digest is a pure function of (seed, plan, pids): recomputing it
    # must reproduce it without touching any process.
    plan = net_chaos_plans(4)["restart"]
    assert report.decision_digest == decision_digest(plan.rules, 3, [0, 1, 2, 3])
