#!/usr/bin/env python3
"""Print the bit-identity bundle every PR records in CHANGES.md, in one go.

* the digest of ``repro campaign --seed 1 --smoke`` and of the full
  ``repro campaign --seed 1``;
* the verdict and digest of the honest chaos campaign cell (adversary
  ``none``, plan ``chaos``, topology ``eu``, seed 1), for each of the
  seven protocols;
* the digest ``benchmarks/ledger/run.py`` reports for each ``sim-*``
  workload on seeds 1-3 (the ledger is *called*, one quick untraced run
  per cell; nothing under ``benchmarks/ledger`` is touched);
* ``sim-order``: the delivery order on the ``Network.send`` paths none
  of the above reaches - a tap, FIFO links, and every link losing,
  duplicating and delaying messages at once, around one crash and
  recovery (f = 1, 4 clients, 500 virtual ms) - as the SHA-256 of every
  ``(now, src, dst, msg_type, view)`` the tap saw plus the event, drop
  and duplicate counts;
* ``pool-order``: one replica's mempool on its own, fed
  ``tcp-paced-mixed``'s traffic shape (fees 0-100, payloads of 0, 256 and
  1 024 B) in alternating fill and drain phases, so the count and byte
  caps evict, backpressure engages and releases, blocks drain around an
  ``exclude`` set and stop at the byte cap, committed keys are purged,
  replays bounce, and the pool crashes once - as the SHA-256 of every
  verdict and every drained block plus the final ``stats()``;
* ``rejoin``: per protocol, the views and executed heights of all
  replicas at 9 s and 16 s of the ledger's crash shape (f = 1, 500 tx/s,
  replica 1 down from 3 s to 8 s) and the requests answered by 10 s of
  4 992 - whether a restarted replica still comes back level.

``--quick`` keeps the smoke campaign, the chaos runs, ``sim-order``,
``pool-order``, ``rejoin`` and seed 1 of the ledger digests (under a
minute); CI uploads that half as an artifact.  Run it at two commits and diff the output:
everything that has no clients must agree line for line.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIM_WORKLOADS = ("sim-load", "sim-quorum", "sim-leader-crash")
SIM_ORDER_PROTOCOLS = ("damysus", "chained-damysus", "chained-hotstuff")

#: Child program behind the ``sim-order`` lines; the protocol is ``argv[1]``.
_SIM_ORDER = """
import hashlib
import sys

from repro.config import SystemConfig
from repro.core.codec import msg_type_of
from repro.core.faults import FaultPlan
from repro.runtime.sim import ConsensusSystem

system = ConsensusSystem(SystemConfig(
    protocol=sys.argv[1], f=1, seed=1, fifo_links=True, open_loop=False, num_clients=4,
    client_interval_ms=2.0, client_poisson=True, block_size=50, timeout_ms=100.0,
))
system.apply_fault_plan(
    FaultPlan()
    .lossy_links(0.02)
    .duplicating_links(0.2)
    .delaying_links(10.0, delay_prob=0.5)
    .crash(2, at_ms=150.0, recover_at_ms=300.0)
)
sim, monitor, seen = system.sim, system.monitor, hashlib.sha256()


def tap(src, dst, payload):
    row = (sim.now, src, dst, msg_type_of(payload), getattr(payload, "view", None))
    seen.update(repr(row).encode())


system.network.add_tap(tap)
system.run(500.0)
counts = (sim.events_processed, monitor.messages_dropped, monitor.messages_duplicated)
seen.update(repr(counts).encode())
print(seen.hexdigest(), "events/dropped/duplicated", *counts)
"""


#: Child program behind the ``pool-order`` line.
_POOL_ORDER = """
import hashlib

from repro.core.mempool import Transaction
from repro.core.rng import RngStream
from repro.mempool.pool import PriorityMempool

rng = RngStream(1, "identity:pool-order")
pool = PriorityMempool(
    0, 50, open_loop=False, max_txs=200, max_bytes=100_000, max_block_bytes=16_384,
)
seen = hashlib.sha256()
next_id = [0] * 8
recent = []  # keys of the latest submissions: exclude, purge and replay candidates
for step in range(20_000):
    now = step * 0.1
    draining = (step // 1_500) % 2
    roll = rng.random()
    if step == 12_345:
        pool.lose_memory()
        seen.update(b"crash")
    elif roll < (0.15 if draining else 0.003):
        exclude = {rng.choice(recent) for _ in range(rng.randint(0, 6))} if recent else set()
        block = pool.take_block(now, exclude)
        seen.update(repr((step, len(block))).encode() + block.packed)
    elif roll < 0.18 and recent:
        committed = sorted({rng.choice(recent) for _ in range(rng.randint(1, 8))})
        pool.purge_committed(committed)
        seen.update(repr((step, "purge", committed)).encode())
    else:
        client = rng.randint(0, 7)
        if roll < 0.23 and recent:
            client, tx_id = rng.choice(recent)  # a replay, or a resubmission after eviction
        else:
            tx_id, next_id[client] = next_id[client], next_id[client] + 1
        tx = Transaction(client, tx_id, rng.choice((0, 256, 1024)), now, rng.randint(0, 100))
        verdict = pool.admit(tx, now)
        recent = [*recent[-63:], (client, tx_id)]
        seen.update(repr((step, client, tx_id, verdict.value)).encode())
stats = pool.stats()
seen.update(repr(sorted(stats.items())).encode())
print(seen.hexdigest(), "admitted/evicted/engagements",
      stats["admitted"], stats["evicted"], stats["backpressure_engagements"])
"""


#: Child program behind the ``rejoin`` lines; the protocol is ``argv[1]``.
_REJOIN = """
import dataclasses
import sys

from repro.bench.load import load_config
from repro.core.faults import FaultPlan
from repro.runtime.sim import ConsensusSystem

config = load_config(sys.argv[1], rate_per_s=500.0, senders=16, f=1, seed=1, payload_bytes=256)
system = ConsensusSystem(dataclasses.replace(config, client_total_txs=312), strict_safety=True)
system.apply_fault_plan(FaultPlan().crash(1, at_ms=3_000.0, recover_at_ms=8_000.0))
system.start()
out = []
for second in (9, 10, 16):
    system.run(second * 1000.0 - system.sim.now)
    if second == 10:
        out.append(f"by 10 s {sum(len(c.completed) for c in system.clients)}")
        continue
    views = "/".join(str(r.view) for r in system.replicas)
    heights = "/".join(str(r.ledger.height()) for r in system.replicas)
    out.append(f"{second} s views {views} heights {heights}")
print("  ".join(out), "safe" if system.oracle.safe else "UNSAFE")
"""


def _run(command: list[str]) -> str:
    """Standard output of one child of this interpreter, ``src/`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if part
    )
    done = subprocess.run(  # noqa: S603 - this interpreter, fixed arguments
        [sys.executable, *command], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=1800, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"identity_evidence: {' '.join(command)} exited {done.returncode}")
    return done.stdout


def campaign_digest(smoke: bool) -> str:
    flags = ["--smoke"] if smoke else []
    return _run(["-m", "repro", "campaign", "--seed", "1", "--digest-only", *flags]).strip()


def chaos_cell(protocol: str) -> str:
    """Verdict and digest of the honest chaos cell for ``protocol``, seed 1."""
    report = json.loads(_run([
        "-m", "repro", "campaign", "--protocols", protocol, "--adversaries", "none",
        "--plans", "chaos", "--topologies", "eu", "--seed", "1", "--json",
    ]))
    return f"{report['cells'][0]['verdict']} {report['digest']}"


def ledger_digest(workload: str, seed: int) -> str:
    out = _run([
        "benchmarks/ledger/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", "0", "--quick", "--full",
    ])
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"identity_evidence: {workload} seed {seed}: {result['problems']}")
    return str(result["detail"]["exact"]["digest"])


def sim_order(protocol: str) -> str:
    return _run(["-c", _SIM_ORDER, protocol]).strip()


def pool_order() -> str:
    return _run(["-c", _POOL_ORDER]).strip()


def rejoin(protocol: str) -> str:
    return _run(["-c", _REJOIN, protocol]).strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke campaign, chaos x7, ledger digests for seed 1 only")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.protocols.registry import SPECS

    print(f"campaign --seed 1 --smoke      {campaign_digest(smoke=True)}", flush=True)
    if not args.quick:
        print(f"campaign --seed 1              {campaign_digest(smoke=False)}", flush=True)
    for protocol in SPECS:
        print(f"chaos {protocol:18s} --seed 1  {chaos_cell(protocol)}", flush=True)
    for protocol in SIM_ORDER_PROTOCOLS:
        print(f"sim-order {protocol:14s} seed 1  {sim_order(protocol)}", flush=True)
    print(f"pool-order                seed 1  {pool_order()}", flush=True)
    for protocol in SPECS:
        print(f"rejoin {protocol:17s} seed 1  {rejoin(protocol)}", flush=True)
    for seed in (1,) if args.quick else (1, 2, 3):
        for workload in SIM_WORKLOADS:
            print(f"ledger {workload:17s} seed {seed}  {ledger_digest(workload, seed)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
