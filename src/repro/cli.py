"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` - run one protocol deployment and print what it measured, or
  several protocols on the same deployment side by side; on the
  simulator (``--runtime sim``, the default) or as a localhost cluster on
  asyncio TCP sockets (``--runtime tcp``), from the same flags.  With
  ``--rate``, Poisson clients drive it through the mempool for
  ``--duration`` seconds and it prints their load report (throughput,
  p50/p99 latency, drops, commit multiplicity);
* ``experiment`` - regenerate one of the paper's tables/figures; the
  grids (Figs 6-8) take their size as flags and shard across processes;
* ``profile`` - cProfile one scenario cell and print the hot functions;
* ``campaign`` - seeded attack-campaign sweep: {protocol x adversary x
  fault plan x topology}, each cell scored by safety/liveness/degradation
  oracles into a deterministic JSON verdict table (``--adversaries none
  --plans chaos --topologies eu`` is the honest chaos cell: lossy links,
  a partition, crash/recovery);
* ``counterexample`` - print the Section 4 trusted-counter demonstration;
* ``serve`` - run one replica on real asyncio TCP sockets (fixed ports);
* ``net-chaos`` - multi-process chaos: plays a named fault plan (SIGKILL
  + restart from the durable record, a live partition/heal) on OS processes and
  gives it a campaign cell's verdict (PASS / UNSAFE / STALLED);
* ``lint`` - check the repo's static invariants: per-file (TEE boundaries,
  determinism, message exhaustiveness, layering) and whole-program (TEE
  taint tracking, transitive effect purity, asyncio await races);
* ``protocols`` - list the implemented protocols and their properties.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from functools import partial
from typing import Any

from repro.adversary.registry import get_adversary
from repro.analysis.counterexample import run_checker_scenario, run_counter_scenario
from repro.analysis.engine import (
    BASELINE_DEFAULT,
    all_rule_ids,
    format_findings_json,
    format_findings_text,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.bench.experiments import fig6, fig7, fig8, fig9, table1_experiment
from repro.bench.load import load_report, poisson_clients
from repro.bench.reporting import format_table
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.protocols.registry import PROTOCOL_ORDER, SPECS, get_spec
from repro.runtime.sim import ConsensusSystem
from repro.sim.regions import EU_REGIONS, WORLD_REGIONS

_REGIONS = {"eu": EU_REGIONS, "world": WORLD_REGIONS}

#: ``run``'s stop rules unless ``--views`` / ``--duration`` say: blocks a run
#: without clients commits, and the seconds a ``--rate`` run lasts (virtual on
#: the simulator), which also bound a tcp run without clients.
_VIEWS = 10
_DURATION_S = 10.0
#: ``--senders`` Poisson clients unless it says.
_SENDERS = 4

_EXPERIMENTS = {
    "table1": partial(table1_experiment, f=2),
    "fig6a": partial(fig6, payload_bytes=256),
    "fig6b": partial(fig6, payload_bytes=0),
    "fig7a": partial(fig7, payload_bytes=256),
    "fig7b": partial(fig7, payload_bytes=0),
    "fig8": fig8,
    "fig9": fig9,
}

#: ``experiment`` flags and the parameter each sets; unset, a figure keeps its default.
_GRID_FLAGS = {
    "thresholds": "thresholds",
    "views": "views_per_run",
    "reps": "repetitions",
    "jobs": "jobs",
}


def _add_timeout_flags(
    parser: argparse.ArgumentParser, timeout_ms: float = 2_000.0, jitter: float = 0.0
) -> None:
    """The pacemaker flags: ``SystemConfig``'s defaults unless a command sets its own."""
    parser.add_argument("--timeout-ms", type=float, default=timeout_ms,
                        help="pacemaker base view timeout")
    parser.add_argument("--max-timeout-ms", type=float, default=0.0,
                        help="pacemaker backoff ceiling (0 = 4x the base)")
    parser.add_argument("--timeout-jitter", type=float, default=jitter,
                        help="+/- fraction of seeded pacemaker jitter")


def _add_deployment_flags(
    parser: argparse.ArgumentParser, seed_help: str | None = None
) -> None:
    """The flags `serve` describes one replica's fixed-port TCP deployment with."""
    parser.add_argument("--protocol", default="damysus", choices=sorted(SPECS))
    parser.add_argument("--n", type=int, default=4, help="cluster size")
    parser.add_argument("--seed", type=int, default=1, help=seed_help)
    parser.add_argument("--payload", type=int, default=128, help="tx payload bytes")
    parser.add_argument("--block-size", type=int, default=32, help="txs per block")
    _add_timeout_flags(parser)


def deployment_config(args: argparse.Namespace) -> SystemConfig:
    """The :class:`SystemConfig` the `serve` flags describe (``f`` is sized from ``--n``)."""
    return SystemConfig(
        protocol=args.protocol, seed=args.seed, payload_bytes=args.payload,
        block_size=args.block_size, timeout_ms=args.timeout_ms,
        max_timeout_ms=args.max_timeout_ms, timeout_jitter=args.timeout_jitter,
        checkpoint_interval=args.checkpoint_interval,
    )


def byte_counts(text: str) -> tuple[int, ...]:
    """``--payload-mix``'s comma-separated byte counts."""
    return tuple(int(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAMYSUS (EuroSys 2022) reproduction - simulate hybrid "
        "streamlined BFT protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run one protocol deployment, or several side by side, "
        "on the simulator or on localhost TCP"
    )
    run_p.add_argument("--runtime", default="sim", choices=("sim", "tcp"),
                       help="discrete-event simulator, or asyncio TCP sockets "
                       "on localhost")
    run_p.add_argument("--protocol", nargs="+", default=["damysus"],
                       choices=sorted(SPECS), metavar="NAME",
                       help="one name prints its metrics, several a comparison "
                       "table (see `repro protocols`)")
    run_p.add_argument("--f", type=int, default=1,
                       help="fault threshold; the cluster has the protocol's N(f) replicas")
    run_p.add_argument("--views", type=int, default=None,
                       help=f"blocks to commit (default {_VIEWS}); not with --rate")
    run_p.add_argument("--payload", type=int, default=256, help="tx payload bytes")
    run_p.add_argument("--block-size", type=int, default=400, help="txs per block")
    run_p.add_argument("--seed", type=int, default=1)
    _add_timeout_flags(run_p)
    run_p.add_argument("--adversary", default=None, metavar="NAME",
                       help="seat the named registered attack at its default "
                       "pids (see `repro campaign --list`)")
    run_p.add_argument("--duration", type=float, default=None, metavar="S",
                       help="seconds a --rate run lasts (virtual on sim); without "
                       f"--rate, tcp only: the seconds it may take (default {_DURATION_S:g})")
    run_p.add_argument("--regions", default=None, choices=sorted(_REGIONS),
                       help="sim only: replica placement (default eu)")
    run_p.add_argument("--crash", type=int, nargs="*", default=[], metavar="PID",
                       help="sim only: replicas crashed from the start")
    run_p.add_argument("--real-crypto", action="store_true",
                       help="sim only: use the Schnorr scheme instead of fast HMAC")
    run_p.add_argument("--rate", type=float, default=None, metavar="TX/S",
                       help="seat Poisson clients offering this aggregate load in "
                       "place of synthetic blocks; the flags below need it")
    run_p.add_argument("--senders", type=int, default=None,
                       help=f"independent Poisson clients sharing the rate (default {_SENDERS})")
    run_p.add_argument("--payload-mix", type=byte_counts, default=None, metavar="B,B,...",
                       help="comma-separated payload sizes drawn uniformly "
                       "per tx (overrides --payload), e.g. 0,256,1024")
    run_p.add_argument("--max-fee", type=int, default=None,
                       help="clients draw fees uniformly in [0, MAX] (default 0)")
    run_p.add_argument("--retry-limit", type=int, default=None,
                       help="client resubmissions after a full NACK (default 0)")
    run_p.add_argument("--max-block-bytes", type=int, default=None,
                       help="per-proposal byte cap (default 0 = unbounded)")
    run_p.add_argument("--pool-max-txs", type=int, default=None,
                       help="mempool resident-transaction cap (default 100000)")
    run_p.add_argument("--pool-max-bytes", type=int, default=None,
                       help="mempool resident-byte cap (default 0 = unbounded)")
    run_p.add_argument("--rate-limit", type=float, default=None,
                       help="admitted txs/ms per sender (default 0 = off)")
    run_p.add_argument("--rate-burst", type=float, default=None,
                       help="per-sender token-bucket burst (default 32)")
    run_p.add_argument("--json", action="store_true", default=None,
                       help="emit the load report as JSON")

    exp_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp_p.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp_p.add_argument("--thresholds", type=int, nargs="*", metavar="F",
                       help="fault thresholds (fig6/fig7 only)")
    exp_p.add_argument("--views", type=int, help="views per run (not fig9)")
    exp_p.add_argument("--reps", type=int, help="repetitions per cell (fig6-fig8)")
    exp_p.add_argument("--jobs", type=int, help="worker processes for the grid "
                       "(fig6-fig8; 0 = one per core, 1 = in-process)")

    prof_p = sub.add_parser(
        "profile", help="cProfile one scenario cell and print the hot functions"
    )
    prof_p.add_argument("--protocol", default="damysus", choices=sorted(SPECS))
    prof_p.add_argument("--f", type=int, default=10, help="fault threshold")
    prof_p.add_argument("--views", type=int, default=8, help="blocks to commit")
    prof_p.add_argument("--payload", type=int, default=256, help="tx payload bytes")
    prof_p.add_argument("--regions", default="eu", choices=sorted(_REGIONS))
    prof_p.add_argument("--seed", type=int, default=1)
    prof_p.add_argument("--top", type=int, default=20,
                        help="functions to print, by cumulative time")

    camp_p = sub.add_parser(
        "campaign",
        help="attack-campaign sweep: {protocol x adversary x plan x "
        "topology} scored by safety/liveness/degradation oracles",
    )
    camp_p.add_argument("--protocols", nargs="*", default=["damysus", "hotstuff"],
                        choices=sorted(SPECS), metavar="NAME")
    camp_p.add_argument("--adversaries", nargs="*", default=[], metavar="NAME",
                        help="attacks to run (default: the whole registry); "
                        "see `repro campaign --list`")
    camp_p.add_argument("--plans", nargs="*", default=["clean", "lossy"],
                        metavar="NAME", help="named base fault plans")
    camp_p.add_argument("--topologies", nargs="*", default=["eu", "world"],
                        choices=sorted(_REGIONS), metavar="NAME")
    camp_p.add_argument("--seed", type=int, default=1,
                        help="keys every cell; same seed = bit-identical report")
    camp_p.add_argument("--view-budget", type=int, default=30,
                        help="views scored after healing: the first fresh commit "
                        "and at least half the clean baseline's blocks per view "
                        "must fall inside them, or the LivenessOracle flags a stall")
    _add_timeout_flags(camp_p, timeout_ms=250.0, jitter=0.1)
    camp_p.add_argument("--smoke", action="store_true",
                        help="run the fixed small CI matrix instead")
    camp_p.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    camp_p.add_argument("--digest-only", action="store_true",
                        help="print only the report digest (CI determinism gate)")
    camp_p.add_argument("--list", action="store_true", dest="list_adversaries",
                        help="list registered adversaries and exit")

    sub.add_parser("counterexample", help="Section 4: counters are not enough")

    serve_p = sub.add_parser(
        "serve", help="run one replica on real asyncio TCP sockets"
    )
    _add_deployment_flags(
        serve_p, seed_help="must match across the cluster (keys HMAC secrets)"
    )
    serve_p.add_argument("--pid", type=int, required=True, help="this replica's pid")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--base-port", type=int, default=47000,
                         help="replica i listens on base-port + i")
    serve_p.add_argument("--adversary", default=None, metavar="NAME",
                         help="run this replica as the named registered attack "
                         "(same sans-I/O Machine the simulator runs)")
    serve_p.add_argument("--duration", type=float, default=0.0,
                         help="seconds to run (0 = until interrupted)")
    serve_p.add_argument("--checkpoint-interval", type=int, default=0,
                         help="certify a checkpoint every N committed blocks "
                         "(0 = off); must match across the cluster")
    serve_p.add_argument("--seal-dir", default=None, metavar="DIR",
                         help="persist the replica's durable record here; "
                         "restart restores it (rollback-refusing)")
    serve_p.add_argument("--health-file", default=None, metavar="PATH",
                         help="rewrite a JSON liveness snapshot here")
    serve_p.add_argument("--health-interval", type=float, default=0.5,
                         metavar="S", help="seconds between health snapshots")
    serve_p.add_argument("--fault-spec", default=None, metavar="PATH",
                         help="FaultPlan rules_spec JSON applied to outbound "
                         "frames; re-read when its mtime changes")

    nc_p = sub.add_parser(
        "net-chaos",
        help="multi-process chaos: play a fault plan (SIGKILL + restart from "
        "sealed state, partition + heal) and judge it like a campaign cell",
    )
    nc_p.add_argument("--protocol", default="damysus", choices=sorted(SPECS))
    nc_p.add_argument("--n", type=int, default=4, help="cluster size (>= 4)")
    nc_p.add_argument("--seed", type=int, default=1,
                      help="keys both the cluster and the fault decisions")
    nc_p.add_argument("--base-port", type=int, default=0,
                      help="first replica port (0 = pick free ports)")
    nc_p.add_argument("--commit-bound", type=float, default=60.0, metavar="S",
                      help="seconds to boot, and for every replica to pass "
                      "the cluster's height at the heal")
    nc_p.add_argument("--adversary", default=None, metavar="NAME",
                      help="play the restart plan with the named registered "
                      "attack seated (the crashed replica stays honest)")
    nc_p.add_argument("--catchup", action="store_true",
                      help="play the long-outage plan with checkpointing on: "
                      "the restarted replica must rejoin by a certified "
                      "checkpoint")
    nc_p.add_argument("--run-dir", default=None, metavar="DIR",
                      help="artifact directory (default: fresh temp dir)")
    nc_p.add_argument("--keep-artifacts", action="store_true",
                      help="keep logs/health/seal files even on success")

    lint_p = sub.add_parser(
        "lint",
        help="static invariants: TEE boundaries, determinism, exhaustiveness, "
        "layering, TEE taint, effect purity, await races",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--rule", action="append", dest="rules", metavar="ID",
        help="restrict to the given rule id(s), e.g. --rule TEE001",
    )
    lint_p.add_argument("--format", choices=["text", "json"], default="text")
    lint_p.add_argument(
        "--baseline", default=BASELINE_DEFAULT,
        help=f"baseline of waived findings (default: {BASELINE_DEFAULT})",
    )
    lint_p.add_argument(
        "--no-baseline", action="store_true",
        help="report findings even if the baseline waives them",
    )
    lint_p.add_argument(
        "--write-baseline", action="store_true",
        help="waive every current finding by rewriting the baseline",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit",
    )

    sub.add_parser("protocols", help="list implemented protocols")
    return parser


#: ``run`` flags only the simulator honours: ``--regions`` and
#: ``--real-crypto`` set ``SIMULATOR_ONLY`` fields, and ``--crash`` stops
#: a simulated replica.  Unset, each reads false.
_SIM_FLAGS = ("regions", "real_crypto", "crash")

#: ``run`` flags that shape the clients ``--rate`` seats, and the
#: :class:`SystemConfig` field each sets; unset, a field keeps its default.
_CLIENT_FIELDS = {
    "payload_mix": "client_payload_mix",
    "max_fee": "client_max_fee",
    "retry_limit": "client_retry_limit",
    "max_block_bytes": "max_block_bytes",
    "pool_max_txs": "mempool_max_txs",
    "pool_max_bytes": "mempool_max_bytes",
    "rate_limit": "sender_rate_limit",
    "rate_burst": "sender_rate_burst",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _run_configs(args: argparse.Namespace) -> list[SystemConfig]:
    """One :class:`SystemConfig` per ``--protocol``, the same on both runtimes;
    ``--rate`` seats :func:`~repro.bench.load.poisson_clients` in it.

    A flag the chosen runtime cannot honour, or that the run's stop rule
    or lack of clients leaves without meaning, is a :class:`ConfigError`,
    not ignored.
    """
    if args.runtime == "tcp":
        for name in _SIM_FLAGS:
            if getattr(args, name):
                raise ConfigError(f"{_flag(name)} is simulator-only; it has no meaning on --runtime tcp")
    clients: dict[str, Any] = {}
    if args.rate is None:
        for name in ("senders", *_CLIENT_FIELDS, "json"):
            if getattr(args, name) is not None:
                raise ConfigError(f"{_flag(name)} is for a run with clients; give --rate")
        if args.runtime == "sim" and args.duration is not None:
            raise ConfigError("--duration bounds a tcp or --rate run; a sim run stops at --views")
    else:
        if args.views is not None:
            raise ConfigError("--views stops a run without clients; a --rate run lasts --duration")
        senders = _SENDERS if args.senders is None else args.senders
        clients = poisson_clients(args.rate, senders)
        for name, field in _CLIENT_FIELDS.items():
            if getattr(args, name) is not None:
                clients[field] = getattr(args, name)
    return [
        SystemConfig(
            protocol=protocol,
            f=args.f,
            payload_bytes=args.payload,
            block_size=args.block_size,
            regions=_REGIONS[args.regions or "eu"],
            seed=args.seed,
            use_real_crypto=args.real_crypto,
            timeout_ms=args.timeout_ms,
            max_timeout_ms=args.max_timeout_ms,
            timeout_jitter=args.timeout_jitter,
            **clients,
        )
        for protocol in args.protocol
    ]


def _sim_system(config: SystemConfig, args: argparse.Namespace) -> ConsensusSystem:
    """``config`` on the simulator, with ``--adversary`` seated and ``--crash`` down."""
    overrides = None
    if args.adversary is not None:
        num_replicas = get_spec(config.protocol).num_replicas(config.f)
        attack = get_adversary(args.adversary)
        overrides = attack.replica_overrides(config.protocol, num_replicas, config.f)
    system = ConsensusSystem(config, replica_overrides=overrides)
    if args.crash:
        system.crash_replicas(args.crash)
    return system


def _cmd_run(args: argparse.Namespace) -> int:
    configs = _run_configs(args)
    duration = _DURATION_S if args.duration is None else args.duration
    if args.rate is not None:
        return _run_clients(configs, duration, args)
    views = _VIEWS if args.views is None else args.views
    if args.runtime == "tcp":
        return _run_tcp(configs, views, duration, args)
    results = [_sim_system(config, args).run_until_views(views) for config in configs]
    if len(results) > 1:
        rows = [
            [r.protocol, r.num_replicas, r.throughput_kops, r.mean_latency_ms,
             r.messages_sent, "OK" if r.safe else "VIOLATED"]
            for r in results
        ]
        print(
            format_table(
                ["protocol", "N", "Kops/s", "latency ms", "msgs", "safety"],
                rows,
                title=f"f={args.f}, {args.payload}B payload, {args.regions or 'eu'} regions",
            )
        )
    else:
        result = results[0]
        print(f"protocol           {result.protocol}")
        print(f"replicas           {result.num_replicas} (f={result.f})")
        print(f"committed blocks   {result.committed_blocks}")
        print(f"virtual time       {result.duration_ms:.0f} ms")
        print(f"throughput         {result.throughput_kops:.2f} Kops/s")
        print(f"latency            {result.mean_latency_ms:.1f} ms")
        print(f"messages / bytes   {result.messages_sent} / {result.bytes_sent}")
        print(f"safety             {'OK' if result.safe else 'VIOLATED'}")
    return 0 if all(r.safe for r in results) else 1


def _run_tcp(
    configs: list[SystemConfig], views: int, duration: float, args: argparse.Namespace
) -> int:
    """Each config as a :class:`LocalCluster` until every replica holds ``views``
    blocks or ``duration`` seconds run out; exit 1 if a cluster committed nothing.

    It prints what the sockets measured: no latency, which no replica
    stamps here (``--rate`` clients do), and no safety verdict, which no
    oracle checks here.
    """
    import asyncio

    from repro.runtime.asyncio_net import LocalCluster

    clusters = [LocalCluster(config, adversary=args.adversary) for config in configs]
    rows: list[list[object]] = []
    stalled = False
    for config, cluster in zip(configs, clusters):
        elapsed = asyncio.run(cluster.run(duration, target_blocks=views))
        seated = cluster.runtimes[: cluster.n]  # the replicas' runtimes, not the clients'
        blocks = min(rt.committed_blocks for rt in seated)  # at the slowest replica
        txs = min(rt.committed_txs for rt in seated)
        msgs = sum(rt.sent_messages for rt in seated)
        stalled |= blocks == 0
        rows.append([config.protocol, cluster.n, blocks, txs / elapsed, msgs])
        if len(clusters) > 1:
            continue
        print(f"protocol           {config.protocol}")
        print(f"replicas           {cluster.n} (f={cluster.f}, quorum={cluster.quorum})")
        print(f"elapsed            {elapsed:.2f} s")
        print(f"committed blocks   {blocks} (slowest replica)")
        print(f"committed txs      {txs}")
        print(f"throughput         {txs / elapsed:,.0f} tx/s")
        print(f"messages / bytes   {msgs} / {sum(rt.sent_bytes for rt in seated)}")
        dropped = sum(rt.dropped_messages for rt in seated)
        if dropped:
            print(f"dropped frames     {dropped}")
    if len(rows) > 1:
        print(
            format_table(
                ["protocol", "N", "blocks", "tx/s", "msgs"],
                rows,
                title=f"f={args.f}, {args.payload}B payload, localhost TCP",
            )
        )
    return 1 if stalled else 0


def _run_clients(
    configs: list[SystemConfig], duration: float, args: argparse.Namespace
) -> int:
    """Each config with its clients for ``duration`` seconds (virtual on the
    simulator), printed as the clients' :class:`~repro.bench.load.LoadReport`.

    Exit 1 if a cluster committed nothing or the simulator's safety oracle
    saw a violation.
    """
    import asyncio

    from repro.runtime.asyncio_net import LocalCluster

    reports = []
    unsafe = False
    for config in configs:
        if args.runtime == "tcp":
            cluster = LocalCluster(config, adversary=args.adversary)
            elapsed = asyncio.run(cluster.run(duration))
            blocks = min(rt.committed_blocks for rt in cluster.runtimes[: cluster.n])
            reports.append(load_report("tcp", cluster, blocks, elapsed * 1000.0, args.rate))
        else:
            system = _sim_system(config, args)
            result = system.run(duration * 1000.0)
            unsafe |= not result.safe
            reports.append(
                load_report("sim", system, result.committed_blocks, result.duration_ms, args.rate)
            )
    if args.json:
        docs = [report.to_dict() for report in reports]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(format_table(["metric", "value"], report.summary_rows(),
                               title="open-loop load report"))
            verdicts = ", ".join(
                f"{name}={count}" for name, count in sorted(report.admission.items())
            )
            print(f"replies by verdict: {verdicts}")
    return 1 if unsafe or any(report.committed_blocks == 0 for report in reports) else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiment = _EXPERIMENTS[args.name]
    takes = inspect.signature(experiment).parameters
    kwargs = {}
    for flag, param in _GRID_FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            if param not in takes:
                raise ConfigError(f"{args.name} takes no --{flag}")
            kwargs[param] = value
    print(experiment(**kwargs).render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats
    import time

    config = SystemConfig(
        protocol=args.protocol,
        f=args.f,
        payload_bytes=args.payload,
        regions=_REGIONS[args.regions],
        seed=args.seed,
    )
    system = ConsensusSystem(config)
    system.sim.attach_wall_clock(time.perf_counter)
    profiler = cProfile.Profile()
    profiler.enable()
    result = system.run_until_views(args.views)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(stream.getvalue().rstrip())
    sim = system.sim
    print(f"committed blocks   {result.committed_blocks}")
    print(f"events fired       {sim.events_processed}")
    print(f"wall seconds       {sim.wall_seconds:.3f}")
    print(f"events / wall s    {sim.events_per_wall_second:,.0f}")
    print(f"wall s / sim s     {sim.wall_seconds_per_sim_second:.3f}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.adversary.registry import ADVERSARIES
    from repro.analysis.campaign import run_campaign, run_smoke_campaign

    if args.list_adversaries:
        for name in sorted(ADVERSARIES):
            spec = ADVERSARIES[name]
            protocols = "/".join(sorted(spec.classes))
            print(f"{name:12s} [{protocols}] {spec.description}")
        return 0
    if args.smoke:
        report = run_smoke_campaign(seed=args.seed)
    else:
        report = run_campaign(
            protocols=tuple(args.protocols),
            adversaries=tuple(args.adversaries),
            plans=tuple(args.plans),
            topologies=tuple(args.topologies),
            seed=args.seed,
            view_budget=args.view_budget,
            config_overrides=dict(
                timeout_ms=args.timeout_ms,
                max_timeout_ms=args.max_timeout_ms,
                timeout_jitter=args.timeout_jitter,
            ),
        )
    if args.digest_only:
        print(report.digest())
    elif args.json:
        print(report.to_json())
    else:
        print(report.describe())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id in all_rule_ids():
            print(rule_id)
        return 0
    baseline = None if args.no_baseline else load_baseline(args.baseline)
    try:
        findings = run_lint(args.paths, rules=args.rules, baseline=baseline)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"baseline: waived {len(findings)} finding(s) in {args.baseline}")
        return 0
    if args.format == "json":
        print(format_findings_json(findings))
    else:
        print(format_findings_text(findings))
    return 1 if findings else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime.asyncio_net import seat_class, serve_replica

    config = deployment_config(args)
    seat_class(config, args.pid, args.n, args.adversary)  # a bad seat is never announced
    print(
        f"replica {args.pid}/{args.n} ({args.protocol}) listening on "
        f"{args.host}:{args.base_port + args.pid}",
        flush=True,
    )
    try:
        runtime = asyncio.run(
            serve_replica(
                config, args.pid, args.n, base_port=args.base_port, host=args.host,
                duration_s=args.duration, adversary=args.adversary, seal_dir=args.seal_dir,
                health_file=args.health_file, health_interval_s=args.health_interval,
                fault_spec=args.fault_spec,
            )
        )
    except KeyboardInterrupt:
        print("interrupted; shutting down")
        return 0
    print(
        f"committed {runtime.committed_blocks} blocks "
        f"({runtime.committed_txs} txs); sent {runtime.sent_messages} messages"
    )
    return 0


def _cmd_net_chaos(args: argparse.Namespace) -> int:
    from repro.runtime.resilience.netchaos import run_net_chaos

    report = run_net_chaos(
        args.protocol,
        args.n,
        plan="catchup" if args.catchup else "restart" if args.adversary else "partition",
        seed=args.seed,
        base_port=args.base_port,
        commit_bound_s=args.commit_bound,
        adversary=args.adversary,
        run_dir=args.run_dir,
        keep_artifacts=args.keep_artifacts,
    )
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_counterexample(_: argparse.Namespace) -> int:
    print("Plain trusted counters (Section 4.1):")
    print(run_counter_scenario().describe())
    print()
    print("Checker + Accumulator:")
    print(run_checker_scenario().describe())
    return 0


def _cmd_protocols(_: argparse.Namespace) -> int:
    rows = []
    for name in sorted(SPECS):
        spec = get_spec(name)
        rows.append(
            [
                name,
                spec.replicas_expr,
                spec.core_phases,
                spec.comm_steps,
                "yes" if spec.chained else "no",
                ", ".join(spec.trusted_components) or "-",
                "paper" if name in PROTOCOL_ORDER else "extra",
            ]
        )
    print(
        format_table(
            ["protocol", "replicas", "phases", "steps", "chained", "TEEs", "origin"],
            rows,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "profile": _cmd_profile,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "net-chaos": _cmd_net_chaos,
        "counterexample": _cmd_counterexample,
        "lint": _cmd_lint,
        "protocols": _cmd_protocols,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
