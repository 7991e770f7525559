"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, deployment_config, main
from repro.protocols.registry import SPECS
from repro.runtime.resilience.supervisor import ReplicaProcessSpec
from tests.conftest import tcp_config


def test_run_command(capsys):
    code = main(
        ["run", "--protocol", "damysus", "--f", "1", "--views", "3",
         "--payload", "0", "--block-size", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "damysus" in out
    assert "safety             OK" in out


def test_run_with_crash(capsys):
    code = main(
        ["run", "--protocol", "hotstuff", "--views", "3", "--payload", "0",
         "--block-size", "10", "--crash", "3"]
    )
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_compare_command(capsys):
    """``run`` over several protocols prints them side by side."""
    code = main(
        ["run", "--protocol", "hotstuff", "damysus", "--views", "3",
         "--payload", "0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "hotstuff" in out and "damysus" in out


def test_counterexample_command(capsys):
    code = main(["counterexample"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VIOLATED" in out  # the counter scenario breaks
    assert "PRESERVED" in out  # the checker scenario holds


def test_protocols_command(capsys):
    code = main(["protocols"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("hotstuff", "damysus", "chained-damysus", "fast-hotstuff"):
        assert name in out


def test_experiment_table1(capsys):
    code = main(["experiment", "table1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Table 1" in out
    assert "pbft" in out


def test_chaos_command(capsys):
    """The campaign's honest chaos cell is one ``campaign`` call, printed as its row."""
    code = main(["campaign", "--protocols", "damysus", "--adversaries", "none",
                 "--plans", "chaos", "--topologies", "eu", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    row = out.splitlines()[2].split()
    assert row[:5] == ["damysus", "none", "chaos", "eu", "PASS"]
    assert "1 cells: 1 pass, 0 unsafe, 0 stalled" in out


@pytest.mark.parametrize("command", ["chaos", "net-bench", "load"])
def test_removed_commands_are_usage_errors(command, capsys):
    """``chaos`` is a ``campaign`` cell, ``net-bench`` is ``run --runtime tcp``
    and ``load`` is ``run --rate``."""
    with pytest.raises(SystemExit) as exit_info:
        main([command])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_run_on_tcp_commits_and_prints_what_it_measured(capsys):
    code = main(["run", "--runtime", "tcp", "--views", "1", "--duration", "30",
                 "--payload", "0", "--block-size", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "replicas           3 (f=1, quorum=2)" in out
    blocks = next(line for line in out.splitlines() if line.startswith("committed blocks"))
    assert int(blocks.split()[2]) >= 1
    assert "latency" not in out and "safety" not in out  # not measured on sockets


def test_run_on_tcp_compares_protocols_side_by_side(capsys):
    code = main(["run", "--runtime", "tcp", "--protocol", "hotstuff", "damysus",
                 "--views", "1", "--duration", "30", "--payload", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "localhost TCP" in out
    rows = {line.split()[0]: line.split() for line in out.splitlines()[3:]}
    assert rows["hotstuff"][1] == "4" and rows["damysus"][1] == "3"  # N(f) for f = 1
    assert int(rows["hotstuff"][2]) >= 1 and int(rows["damysus"][2]) >= 1


def test_run_with_clients_commits_each_request_once(capsys):
    """``--rate`` seats Poisson clients; the chain carries each request once."""
    code = main(["run", "--rate", "2000", "--senders", "4", "--duration", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "open-loop load report" in out
    assert "commit multiplicity       1.00" in out


def test_run_with_clients_on_tcp_prints_latency(capsys):
    import json

    code = main(["run", "--runtime", "tcp", "--rate", "400", "--senders", "2",
                 "--duration", "3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["runtime"] == "tcp" and report["num_replicas"] == 3
    assert report["committed_blocks"] > 0
    assert report["p50_ms"] > 0


def test_run_with_clients_and_an_adversary_completes_requests(capsys):
    """A seated attack and clients combine: the ``withhold`` coalition slows
    the cluster, and requests still complete, each committed once."""
    import json

    code = main(["run", "--rate", "2000", "--senders", "4", "--duration", "2",
                 "--adversary", "withhold", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["completed"] > 0
    assert report["commit_multiplicity"] == 1.0


def test_loss_only_run_is_the_lossy_campaign_cell(capsys):
    code = main(
        ["campaign", "--protocols", "hotstuff", "--adversaries", "none",
         "--plans", "lossy", "--topologies", "eu", "--seed", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "hotstuff   none        lossy  eu     PASS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "--plans", "chaos", "--f", "2"],
        ["campaign", "--plans", "chaos", "--loss", "0.1"],
        ["campaign", "--plans", "chaos", "--no-crash"],
        ["campaign", "--plans", "chaos", "--settle-views", "3"],
        ["campaign", "--plans", "chaos", "--no-partition"],
        ["net-chaos", "--no-partition"],
        ["net-chaos", "--loss", "0.1"],
        ["net-chaos", "--catchup-commits", "100"],
        ["net-chaos", "--timeout-ms", "500"],
    ],
)
def test_removed_scenario_switches_are_usage_errors(argv, capsys):
    """Scenarios are named plans now: the switches are gone, not ignored.

    The old ``chaos`` command's switches are tried on ``campaign``, which
    runs its cell."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_command_parallel(capsys):
    """``experiment`` takes a grid's size and shards it across processes."""
    code = main(
        ["experiment", "fig6a", "--thresholds", "1", "--views", "3", "--reps", "1",
         "--jobs", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Fig 6a" in out
    assert "damysus" in out


def test_profile_command(capsys):
    code = main(
        ["profile", "--protocol", "hotstuff", "--f", "1", "--views", "3",
         "--payload", "0", "--top", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "cumtime" in out  # cProfile table
    assert "events fired" in out
    assert "wall s / sim s" in out


def test_parser_rejects_unknown_protocol():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--protocol", "nope"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


@pytest.mark.parametrize(
    "argv", [["serve", "--pid", "0", "--n", "3"], ["run", "--runtime", "tcp"]]
)
def test_removed_verify_jobs_flag_is_a_usage_error(argv, capsys):
    """The sharded-verification flag is gone, not ignored."""
    parser = build_parser()
    parser.parse_args(argv)
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args([*argv, "--verify-jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --verify-jobs 2" in capsys.readouterr().err


def test_campaign_list(capsys):
    code = main(["campaign", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("silent", "equivocate", "slow-drip", "withhold",
                 "partition", "sync-forge", "amnesia", "spam"):
        assert name in out
    listed = dict(line.split(None, 1) for line in out.splitlines() if line[0] != " ")
    for name in ("silent", "slow-drip", "spam", "partition", "sync-forge"):
        assert listed[name].startswith("[" + "/".join(SPECS) + "] "), name
    assert listed["amnesia"].startswith("[damysus-c/damysus/chained-damysus] ")
    assert "n/a hotstuff: no Checker, so no sealed state to roll back" in out


def test_campaign_small_matrix(capsys):
    code = main(
        ["campaign", "--protocols", "damysus", "--adversaries", "silent",
         "--plans", "clean", "--topologies", "eu"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "0 unsafe, 0 stalled" in out


def test_campaign_digest_is_deterministic(capsys):
    argv = ["campaign", "--protocols", "damysus", "--adversaries", "spam",
            "--plans", "clean", "--topologies", "eu", "--seed", "5",
            "--digest-only"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip()) == 64  # a full sha256 hex digest


def test_campaign_json_output(capsys):
    import json

    code = main(
        ["campaign", "--protocols", "damysus", "--adversaries", "silent",
         "--plans", "clean", "--topologies", "eu", "--json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["cells"][0]["verdict"] == "PASS"
    assert data["digest"]


def test_chaos_cell_accepts_timeout_knobs(capsys):
    code = main(
        ["campaign", "--protocols", "damysus", "--adversaries", "none",
         "--plans", "chaos", "--topologies", "eu",
         "--max-timeout-ms", "2000", "--timeout-jitter", "0.05"]
    )
    assert code == 0
    assert "0 unsafe, 0 stalled" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--runtime", "tcp", "--f", "0"],
        ["run", "--runtime", "tcp", "--timeout-jitter", "1.5"],
        ["serve", "--pid", "9", "--n", "4"],
        ["serve", "--pid", "0", "--adversary", "nope"],
        ["serve", "--pid", "0", "--protocol", "hotstuff", "--n", "3"],
        ["run", "--rate", "0"],
        ["run", "--rate", "10", "--senders", "0"],
        ["run", "--rate", "10", "--views", "3"],
        ["run", "--senders", "2"],
        ["experiment", "fig8", "--jobs", "-1"],
        ["experiment", "table1", "--jobs", "2"],
        ["run", "--runtime", "tcp", "--regions", "world"],
        ["run", "--runtime", "tcp", "--real-crypto"],
        ["run", "--runtime", "tcp", "--crash", "1"],
        ["run", "--crash", "3"],
        ["run", "--duration", "5"],
        ["run", "--runtime", "tcp", "--protocol", "hotstuff", "--adversary", "flood"],
    ],
)
def test_a_bad_deployment_is_one_line_not_a_traceback(argv, capsys):
    """A ConfigError exits 2 with one stderr line; ``serve`` announces nothing first."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"repro {argv[0]}: ")


@pytest.mark.parametrize(
    "config",
    [
        tcp_config(),
        tcp_config(
            protocol="hotstuff", seed=3, payload_bytes=0, block_size=400, timeout_ms=1_000.0,
            max_timeout_ms=4_000.0, timeout_jitter=0.1, checkpoint_interval=5,
        ),
    ],
)
def test_supervisor_argv_round_trips_through_the_cli(config, tmp_path):
    """A respawn is the same replica: the argv a supervisor writes parses back
    into the spec's config and seat."""
    spec = ReplicaProcessSpec(
        pid=2,
        config=config,
        n=4,
        base_port=5000,
        adversary="silent",
        seal_dir=tmp_path / "seal",
        health_file=tmp_path / "h.json",
        health_interval_s=0.25,
        fault_spec=tmp_path / "faults.json",
    )
    args = build_parser().parse_args(spec.argv()[3:])
    assert deployment_config(args) == spec.config
    assert (args.pid, args.n, args.base_port, args.host, args.adversary) == (
        2, 4, 5000, "127.0.0.1", "silent"
    )
    assert (args.seal_dir, args.health_file, args.health_interval, args.fault_spec) == (
        str(spec.seal_dir), str(spec.health_file), 0.25, str(spec.fault_spec)
    )
