"""Tests for the attack-campaign engine and its three oracles."""

import json
from dataclasses import replace

import pytest

from repro.adversary.behaviors import Behaviour
from repro.adversary.registry import HONEST, AdversarySpec, get_adversary
from repro.analysis import campaign
from repro.analysis.campaign import (
    LIVENESS_RATE_SHARE,
    CampaignCell,
    base_plans,
    degradation_label,
    merge_plans,
    run_campaign,
    run_cell,
)
from repro.core.faults import FaultPlan
from repro.errors import ConfigError, SimulationError
from repro.protocols.registry import SPECS
from repro.protocols.replica import BaseReplica
from repro.protocols.sync import ViewSync


def _tiny_campaign(seed=1):
    return run_campaign(
        protocols=("damysus",),
        adversaries=("silent", "spam"),
        plans=("clean",),
        topologies=("eu",),
        seed=seed,
    )


def _chaos_cell(seed=1):
    """The honest chaos cell: ``repro campaign --protocols damysus
    --adversaries none --plans chaos --topologies eu --seed S``."""
    return run_cell("damysus", HONEST, "chaos", "eu", seed=seed)


# -- oracles and scoring ----------------------------------------------------


def test_cells_pass_all_three_oracles():
    report = _tiny_campaign()
    assert len(report.cells) == 2
    assert report.ok
    for cell in report.cells:
        assert cell.verdict == "PASS"
        assert cell.safe and cell.violation is None
        assert cell.live_after_heal
        assert cell.views_to_recover is not None
        assert cell.commit_rate >= LIVENESS_RATE_SHARE * cell.baseline_commit_rate > 0
        assert cell.attack_events > 0  # the attack demonstrably fired
        assert cell.commits > 0 and cell.baseline_commits > 0


def test_colluding_plan_rides_along_with_the_adversary():
    """sync-forge bundles a victim-crash plan; the cell must still be safe
    and live.  Nobody asked the forger for a sync here, so it is untested."""
    cell = run_cell(
        "damysus", get_adversary("sync-forge"), "clean", "eu", seed=1
    )
    assert cell.ok
    assert cell.attack_events == 0 and cell.verdict == "UNTESTED"
    assert cell.healed_at_ms == 2_400.0  # the bundled crash's recovery


def test_hotstuff_resynchronizes_after_crash_plus_loss():
    """Regression: crash + lossy links used to leave HotStuff replicas in
    permanently offset views (one view per capped timeout, never
    converging).  The corroborated-view jump on timeout fixes it; this
    cell stalled forever before that fix.
    """
    for topology in ("eu", "world"):
        cell = run_cell(
            "hotstuff", get_adversary("sync-forge"), "lossy", topology, seed=1
        )
        assert cell.ok, topology
        assert cell.attack_events == 0 and cell.verdict == "UNTESTED", topology


def test_liveness_is_a_rate_every_correct_replica_must_sustain(monkeypatch):
    """A replica that is back but never rejoins fails the cell.

    The same crash cell, checkpoints off so nothing but view
    synchronisation can bring the victim back, run twice: as the chassis
    is, and with its re-synchronisation rule cut out (one view per
    timeout, no jump - every protocol but HotStuff before the rule moved
    into ``BaseReplica``).  The mutant's survivors go on committing two
    blocks per timeout, which satisfied the old "some fresh commits after
    heal" oracle for ever; its victim gains nothing, and that is what the
    rate sees.
    """
    def run():
        return run_cell(
            "damysus", get_adversary("sync-forge"), "clean", "eu", seed=1,
            config_overrides={"checkpoint_interval": 0},
        )

    cell = run()
    assert cell.ok and cell.verdict == "UNTESTED"  # the forger is never asked
    assert cell.commit_rate >= 0.9 * cell.baseline_commit_rate

    monkeypatch.setattr(ViewSync, "resynchronise", lambda self: None)
    monkeypatch.setattr(
        BaseReplica, "on_view_timeout", lambda self, view: self.advance_view(view + 1)
    )
    mutant = run()
    assert mutant.safe and mutant.commits > 0
    assert mutant.views_to_recover is not None  # fresh commits do arrive
    assert mutant.commit_rate < LIVENESS_RATE_SHARE * mutant.baseline_commit_rate
    assert mutant.verdict == "STALLED"


def test_cells_red_at_the_parent_commit_are_green():
    """Under the rate rule the parent commit stalls in these two cells
    (a replica left views behind by loss, or by the partition, gained 0.30
    and 0.00 blocks per view); the corroboration jump brings it level."""
    for protocol, adversary, plan in (
        ("damysus", "stale", "lossy"),
        ("hotstuff", "partition", "clean"),
    ):
        cell = run_cell(protocol, get_adversary(adversary), plan, "eu", seed=1)
        assert cell.verdict == "PASS", (protocol, adversary)
        assert cell.commit_rate >= 0.9 * cell.baseline_commit_rate


@pytest.mark.parametrize(
    ("protocol", "plan"),
    [(protocol, "chaos") for protocol in sorted(SPECS)] + [("hotstuff", "lossy")],
)
def test_honest_cell_is_safe_and_recovers(protocol, plan):
    """Nobody seated, under loss, a partition and f crash/recover cycles
    (or loss alone): safe throughout, live within the budget once the
    plan heals, and at the clean rate - the cell is its own baseline."""
    cell = run_cell(protocol, HONEST, plan, "eu", seed=1)
    assert cell.verdict == "PASS"
    assert cell.safe and cell.violation is None
    assert cell.attacker_pids == () and cell.attack_events == 0
    assert cell.views_to_recover is not None and cell.views_to_recover <= 30
    assert cell.duration_ms < cell.healed_at_ms + 10_000.0
    assert cell.timeouts_fired > 0  # the faults did bite
    assert cell.commit_rate == cell.baseline_commit_rate > 0


def test_an_honest_cell_runs_once(monkeypatch):
    """No seats and no colluding plan: the clean baseline is the same
    seeded run, so it is not simulated a second time."""
    built = []
    real = campaign.ConsensusSystem

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(campaign, "ConsensusSystem", counting)
    cell = _chaos_cell()
    assert len(built) == 1
    assert cell.degradation_ratio == 1.0
    assert cell.baseline_commits == cell.commits
    built.clear()
    run_cell("damysus", get_adversary("silent"), "clean", "eu", seed=1)
    assert len(built) == 2  # an attack cell still runs its baseline


class _ForkReporting(Behaviour):
    """Honest, except that once its chain is two blocks high it tells the
    strict oracle it executed a block nobody proposed."""

    forged = False

    def execute_block(self, block, view):
        executed = super().execute_block(block, view)
        if not self.forged and self.ledger.height() >= 2:
            self.forged = True
            self.ledger.oracle.record(self.pid, b"\xff" * 32)
        return executed


_FORK_REPORTER = AdversarySpec(
    name="fork-report",
    description="reports a conflicting execution to the oracle",
    behaviour=_ForkReporting,
)


def test_an_unsafe_cell_is_scored_off_the_oracle_not_the_monitor(monkeypatch):
    """The strict oracle raises inside a ledger's execute call, before that
    call's blocks reach the monitor: liveness is left unscored, and the
    cell counts the blocks the oracle recorded."""
    built = []
    real = campaign.ConsensusSystem

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(campaign, "ConsensusSystem", recording)
    cell = run_cell("damysus", _FORK_REPORTER, "clean", "eu", seed=1)
    assert cell.verdict == "UNSAFE" and "applied" not in cell.violation
    assert (cell.live_after_heal, cell.views_to_recover, cell.commit_rate) == (False, None, None)
    attacked = built[0]
    oracle = attacked.oracle
    recorded = set(oracle.canonical_chain()).union(*oracle.sequences.values())
    assert b"\xff" * 32 in recorded
    assert cell.commits == len(recorded) > attacked.monitor.committed_block_count()
    report = campaign.CampaignReport(
        seed=1, view_budget=30, protocols=("damysus",), adversaries=("fork-report",),
        plans=("clean",), topologies=("eu",), cells=[cell],
    )
    assert report.describe().splitlines()[2].split()[4:] == [
        "UNSAFE", cell.degradation, f"{cell.degradation_ratio:.2f}", "-", "-", "0",
    ]
    assert json.loads(report.to_json())["cells"][0]["commit_rate"] is None


def test_unhealing_plan_is_rejected():
    never_heals = replace(
        HONEST, colluding_plan=lambda n, f: FaultPlan().lossy_links(0.1)  # no end_ms
    )
    with pytest.raises(SimulationError, match="never heals"):
        run_cell("damysus", never_heals, "clean", "eu", seed=1)


def test_degradation_bands():
    assert degradation_label(1.0) == "minimal"
    assert degradation_label(0.75) == "minimal"
    assert degradation_label(0.5) == "moderate"
    assert degradation_label(0.40) == "moderate"
    assert degradation_label(0.1) == "severe"
    assert degradation_label(0.0) == "severe"


# -- determinism ------------------------------------------------------------


def test_same_seed_is_bit_identical():
    first, second = _tiny_campaign(seed=3), _tiny_campaign(seed=3)
    assert first.to_json() == second.to_json()
    assert first.digest() == second.digest()


def test_different_seeds_diverge():
    assert _tiny_campaign(seed=1).digest() != _tiny_campaign(seed=2).digest()


def test_report_round_trips_through_json():
    report = _tiny_campaign()
    data = json.loads(report.to_json())
    assert data["digest"] == report.digest()
    assert len(data["cells"]) == 2
    assert data["cells"][0]["verdict"] == "PASS"


def test_unsupported_pairs_are_skipped_not_errors():
    report = run_campaign(
        protocols=("hotstuff",),
        adversaries=("amnesia",),  # needs a TEE to roll back
        plans=("clean",),
        topologies=("eu",),
    )
    assert report.cells == []
    assert report.skipped == [("amnesia", "hotstuff")]
    assert report.ok  # nothing ran, nothing failed


def test_unknown_plan_and_topology_are_config_errors():
    with pytest.raises(ConfigError, match="unknown plan"):
        run_campaign(plans=("stormy",))
    with pytest.raises(ConfigError, match="unknown topology"):
        run_cell("damysus", get_adversary("silent"), "clean", "mars", seed=1)


# -- plan plumbing ----------------------------------------------------------


def test_base_plans_are_rebuilt_per_call():
    """FaultPlan is mutable; sharing one instance would leak rules."""
    base_plans(4, 1)["clean"].lossy_links(0.5, end_ms=10.0)
    assert base_plans(4, 1)["clean"].rules == []


def test_chaos_plan_shape():
    """Loss and a partition around the first f replicas, healed by 4 s,
    and f crash/recover cycles on the trailing replicas, 100 ms apart."""
    plan = base_plans(4, 1)["chaos"]
    assert len(plan.rules) == 2  # loss + partition
    assert [(c.pid, c.at_ms, c.recover_at_ms) for c in plan.crashes] == [
        (3, 500.0, 3_000.0)
    ]
    assert plan.healed_by_ms() == 4_000.0
    assert [c.pid for c in base_plans(7, 2)["chaos"].crashes] == [6, 5]
    assert set(base_plans(1, 0)) == set(base_plans(7, 2))  # names do not depend on size


def test_merge_plans_carries_rules_and_crashes_from_both():
    base = FaultPlan().lossy_links(0.1, end_ms=100.0)
    extra = FaultPlan().crash(2, at_ms=50.0, recover_at_ms=80.0)
    merged = merge_plans(base, extra)
    assert len(merged.rules) == len(base.rules)
    assert len(merged.crashes) == 1
    assert merged is not base and merged is not extra
    assert merge_plans(base, None).crashes == []


def _cell(**fields):
    """A hand-made cell: an attack at pid 1 that fired once, safe and live."""
    return CampaignCell(**{
        "protocol": "damysus", "adversary": "x", "plan": "clean", "topology": "eu",
        "seed": 1, "safe": True, "violation": None, "live_after_heal": True,
        "views_to_recover": None, "commit_rate": 0.0, "baseline_commit_rate": 1.0,
        "healed_at_ms": 0.0, "duration_ms": 1.0, "commits": 0, "baseline_commits": 1,
        "degradation_ratio": 0.0, "degradation": "severe", "attack_events": 1,
        "attacker_pids": (1,), "timeouts_fired": 0, **fields,
    })


def test_verdict_precedence_unsafe_beats_stalled():
    unsafe = _cell(safe=False, live_after_heal=False)
    stalled = _cell(live_after_heal=False)
    passing = _cell()
    assert unsafe.verdict == "UNSAFE" and not unsafe.ok
    assert stalled.verdict == "STALLED" and not stalled.ok
    assert passing.verdict == "PASS" and passing.ok
    assert _cell(live_after_heal=False, attack_events=0).verdict == "STALLED"


def test_an_attack_that_never_fired_reads_untested():
    """Safe and live, but a seated attack with no event tested nothing.
    The honest cell seats nobody and still reads PASS; the digest hashes
    the cell's fields, not the verdict, so equal cells give equal digests."""
    idle = _cell(attack_events=0)
    honest = _cell(adversary="none", attacker_pids=(), attack_events=0)
    assert idle.verdict == "UNTESTED" and idle.ok
    assert honest.verdict == "PASS" and honest.ok

    def report(*cells):
        return campaign.CampaignReport(1, 30, ("damysus",), (), ("clean",), ("eu",), list(cells))

    assert report(idle, honest).digest() == report(replace(idle), replace(honest)).digest()
    assert report(idle, honest).ok
    assert "2 cells: 1 pass, 0 unsafe, 0 stalled, 1 untested" in report(idle, honest).describe()
