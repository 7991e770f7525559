"""Smoke tests: every shipped example must keep running.

Examples are documentation that executes; these tests run each example's
``main()`` in-process (stdout captured) so refactors cannot silently
break them.  The saturation sweep is exercised at reduced scale through
its underlying experiment function instead (it takes ~20 s at example
scale).
"""

import importlib
import sys


sys.path.insert(0, "examples")


def run_example(module_name: str, capsys) -> str:
    module = importlib.import_module(module_name)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "DAMYSUS quickstart" in out
    assert "safety              : OK" in out
    assert "executed chain" in out


def test_byzantine_faults(capsys):
    out = run_example("byzantine_faults", capsys)
    assert "safety VIOLATED" in out  # the counter scenario
    assert "safety PRESERVED" in out  # the checker scenario
    assert out.count("safety OK") >= 3  # the live adversary runs


def test_chained_pipeline(capsys):
    out = run_example("chained_pipeline", capsys)
    assert "chained-hotstuff" in out
    assert "chained-damysus" in out
    assert "pipeline" in out


def test_replicated_kvstore(capsys):
    out = run_example("replicated_kvstore", capsys)
    assert "all replicas converged" in out
    assert "logins=3" in out


def test_chaos_run(capsys):
    out = run_example("chaos_run", capsys)
    assert "verdict              PASS" in out
    assert "replay is bit-identical" in out


def test_regional_deployment_reduced(capsys):
    """The regional example at its own (already reduced) scale."""
    out = run_example("regional_deployment", capsys)
    assert "Fig 6a" in out and "Fig 7a" in out
    assert "damysus vs hotstuff" in out


def test_saturation_sweep_reduced():
    """Underlying fig9 sweep at a scale suitable for the test suite."""
    from repro.bench.experiments import fig9

    report = fig9(
        intervals_ms=[2.0, 0.5],
        num_clients=2,
        duration_ms=400.0,
        protocols=["damysus"],
    )
    assert len(report.rows) == 2
