"""The paper's shapes, read off the committed figures.

``scripts/run_full_experiments.py`` writes Table 1 and Figs 6-9 to
``results/full_results.json``, and CI regenerates the file and compares
it byte for byte.  These tests assert the shapes EXPERIMENTS.md claims
for those numbers, so a regenerated file whose shapes flip fails here
instead of slipping through as a prose edit.  A cell that contradicts a
shape is listed in ``EXCEPTIONS`` (EXPERIMENTS.md says why), and the tests
assert that it still does.
"""

import json
import pathlib

import pytest

from repro.analysis.complexity import expected_messages
from repro.analysis.metrics import mean, throughput_increase_percent
from repro.bench.experiments import ALL_PROTOCOLS, FIG8_CELLS
from repro.protocols.registry import get_spec

RESULTS = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "results" / "full_results.json").read_text()
)

#: Each hybrid against the HotStuff it improves on.
BASELINE = {
    "damysus-c": "hotstuff",
    "damysus-a": "hotstuff",
    "damysus": "hotstuff",
    "chained-damysus": "chained-hotstuff",
}
CURVES = ("fig6a", "fig6b", "fig7a", "fig7b")

#: (figure, f, hybrid, axis) where the hybrid does not beat its baseline.
EXCEPTIONS = {("fig7a", 4, "damysus-c", "latency")}


def curve(figure):
    """``{f: {protocol: (throughput Kops/s, latency ms)}}``, f ascending."""
    out = {}
    for key, cell in RESULTS[figure]["cells"].items():
        protocol, f = key.split("|")
        out.setdefault(int(f), {})[protocol] = (cell["tput_kops"], cell["lat_ms"])
    return dict(sorted(out.items()))


def sweep():
    """Fig 9 as ``{protocol: [(interval ms, Kops/s, latency ms)]}``, lightest load first."""
    out = {}
    for key, cell in RESULTS["fig9"].items():
        protocol, interval = key.split("|")
        out.setdefault(protocol, []).append(
            (float(interval), cell["achieved_kops"], cell["latency_ms"])
        )
    return {protocol: sorted(rows, reverse=True) for protocol, rows in out.items()}


@pytest.mark.parametrize("figure", CURVES)
def test_every_hybrid_beats_its_baseline_at_every_f(figure):
    seen = set()
    for f, cells in curve(figure).items():
        for hybrid, baseline in BASELINE.items():
            for axis, beats in (
                ("throughput", cells[hybrid][0] > cells[baseline][0]),
                ("latency", cells[hybrid][1] < cells[baseline][1]),
            ):
                cell = (figure, f, hybrid, axis)
                seen.add(cell)
                assert beats != (cell in EXCEPTIONS), (cell, cells[hybrid], cells[baseline])
    assert {cell for cell in EXCEPTIONS if cell[0] == figure} <= seen


@pytest.mark.parametrize("figure", CURVES)
def test_damysus_matches_or_beats_both_ablations_on_throughput(figure):
    for f, cells in curve(figure).items():
        for ablation in ("damysus-c", "damysus-a"):
            assert cells["damysus"][0] >= cells[ablation][0], (figure, f, ablation)


@pytest.mark.parametrize("figure", CURVES)
def test_throughput_does_not_rise_with_f(figure):
    for protocol in ALL_PROTOCOLS:
        tputs = [cells[protocol][0] for cells in curve(figure).values()]
        assert tputs == sorted(tputs, reverse=True), (figure, protocol, tputs)


@pytest.mark.parametrize("figure", CURVES)
def test_gains_averaged_over_f(figure):
    """Per f, Damysus-C trails Damysus-A at some cells (EXPERIMENTS.md); on average it leads."""
    cells_by_f = curve(figure).values()

    def gain(hybrid):
        return mean([
            throughput_increase_percent(cells[hybrid][0], cells[BASELINE[hybrid]][0])
            for cells in cells_by_f
        ])

    assert gain("damysus-c") > gain("damysus-a")
    assert gain("damysus") > 0


def test_fig8_damysus_wins_at_equal_fleet():
    assert {get_spec(protocol).num_replicas(f) for protocol, f in FIG8_CELLS} == {61}
    assert set(RESULTS["fig8"]) == {"Fig 6a", "Fig 6b", "Fig 7a", "Fig 7b"}
    for deployment, row in RESULTS["fig8"].items():
        tput, lat = (float(part.rstrip("%")) for part in row["damysus"].split("/"))
        assert tput > 0 and lat > 0, (deployment, row["damysus"])
    # Not the chained row: the paper's Fig 6a cell is -11 %, ours +0.0 % and -12.5 % (6a, 6b).


def test_fig9_saturation_order():
    peak = {protocol: max(kops for _, kops, _ in rows) for protocol, rows in sweep().items()}
    for hybrid, baseline in BASELINE.items():
        assert peak[hybrid] > peak[baseline], (hybrid, peak)
    assert peak["damysus"] > peak["damysus-c"] > peak["damysus-a"], peak
    assert max(peak, key=peak.get) == "chained-damysus", peak


def test_fig9_every_hybrid_is_faster_at_the_lightest_load():
    rows = sweep()
    for hybrid, baseline in BASELINE.items():
        assert rows[hybrid][0][2] < rows[baseline][0][2], (hybrid, rows[hybrid][0])


def test_fig9_latency_does_not_fall_as_load_rises():
    for protocol, rows in sweep().items():
        latencies = [latency for _, _, latency in rows]
        assert latencies == sorted(latencies), (protocol, latencies)
        assert latencies[-1] > latencies[0], (protocol, latencies)


def test_table1_measured_counts_are_the_closed_forms():
    """The script measures Table 1 at f = 2: 56, 40, 42, 30, 56, 30."""
    assert RESULTS["table1"] == {
        protocol: float(expected_messages(protocol, 2)) for protocol in ALL_PROTOCOLS
    }


def test_table1_damysus_sends_under_six_tenths_of_hotstuff():
    measured = RESULTS["table1"]
    assert measured["damysus"] < 0.6 * measured["hotstuff"]
    assert measured["chained-damysus"] < 0.6 * measured["chained-hotstuff"]
