"""Micro cells: each layer's public functions timed in isolation.

A cell builds realistic inputs through public APIs only (real messages
are captured from a short simulated run with a ``Network`` tap), then
calls one function in batches until its time budget is spent and reports
the *fastest* batch: on a shared host noise only adds time.  The cells
say what a call costs on its own; the traced runs say how often a
workload makes that call.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from typing import Any

from repro.config import SystemConfig
from repro.core.codec import decode_message, encode_message
from repro.core.commitment import c_combine
from repro.core.mempool import Transaction
from repro.core.messages import BlockProposal, ClientRequest, CommitmentMsg
from repro.core.rng import RngStream
from repro.crypto.hashing import sha256
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.crypto.schnorr import GROUP_TEST, SchnorrScheme
from repro.mempool.pool import PriorityMempool
from repro.protocols.damysus import KIND_PREP_VOTE
from repro.runtime.sim import ConsensusSystem
from repro.sim.events import Simulator
from repro.tee.accumulator import AccumulatorService
from repro.tee.checker import Checker

#: Seconds each cell gets: 19 cells have to fit into every traced run.
CELL_BUDGET_S = 0.12

#: Signatures in the batch-verify cell and commitments in the accumulate
#: cell: a Damysus quorum certificate at f=10.
QUORUM_F10 = 21


def best_per_op_us(batch: Callable[[], int], budget_s: float) -> float:
    """Fastest observed microseconds per operation of ``batch``.

    ``batch`` performs some operations and returns how many; it is run at
    least three times and until ``budget_s`` has passed.
    """
    best = float("inf")
    deadline = time.perf_counter() + budget_s
    runs = 0
    while runs < 3 or time.perf_counter() < deadline:
        started = time.perf_counter()
        ops = batch()
        best = min(best, (time.perf_counter() - started) / ops)
        runs += 1
    return best * 1e6


def _repeat(fn: Callable[[], Any], times: int) -> Callable[[], int]:
    def batch() -> int:
        for _ in range(times):
            fn()
        return times

    return batch


# -- inputs ------------------------------------------------------------------


def capture_damysus_messages() -> tuple[BlockProposal, CommitmentMsg]:
    """A real full-block proposal and a real prepare vote, off a sim tap."""
    system = ConsensusSystem(SystemConfig(protocol="damysus", f=1, seed=7))
    seen: dict[str, Any] = {}

    def tap(_src: int, _dst: int, payload: Any) -> None:
        if isinstance(payload, BlockProposal):
            seen.setdefault("proposal", payload)
        elif isinstance(payload, CommitmentMsg) and payload.kind == KIND_PREP_VOTE:
            seen.setdefault("vote", payload)

    system.network.add_tap(tap)
    system.run_until_views(2)
    return seen["proposal"], seen["vote"]


class CheckerRing:
    """``n`` checkers driven through whole views, each TEE call timed by phase.

    The basic step cycle is new-view, prepare, pre-commit: one
    ``tee_sign``, one ``tee_prepare`` and one ``tee_store`` per checker per
    view, each needing the previous phase's certificates - so the ring
    runs real views and keeps one stopwatch per entry point.
    """

    PHASES = ("sign", "accumulate", "prepare", "store")

    def __init__(self, n: int, quorum: int) -> None:
        self.scheme = HmacScheme(secret=b"ledger-micro")
        self.directory = KeyDirectory(self.scheme)
        genesis = sha256(b"ledger-micro-genesis")
        self.quorum = quorum
        self.checkers = [
            Checker(pid, self.scheme, self.directory, genesis, quorum) for pid in range(n)
        ]
        self.accumulator = AccumulatorService(0, self.scheme, self.directory, quorum)

    def run_views(self, views: int) -> dict[str, float]:
        """Seconds spent in each phase over ``views`` whole views."""
        spent = dict.fromkeys(self.PHASES, 0.0)
        clock = time.perf_counter
        for _ in range(views):
            t0 = clock()
            phis = [checker.tee_sign() for checker in self.checkers]
            t1 = clock()
            acc = self.accumulator.accumulate(phis[: self.quorum])
            t2 = clock()
            block_hash = sha256(str(acc.made_in_view).encode())
            t3 = clock()
            votes = [checker.tee_prepare(block_hash, acc) for checker in self.checkers]
            t4 = clock()
            certificate = c_combine(votes[: self.quorum])
            t5 = clock()
            for checker in self.checkers:
                checker.tee_store(certificate)
            t6 = clock()
            spent["sign"] += t1 - t0
            spent["accumulate"] += t2 - t1
            spent["prepare"] += t4 - t3
            spent["store"] += t6 - t5
        return spent


def _tee_cells(budget_s: float) -> dict[str, float]:
    """Checker calls at f=1 and one accumulation of a 21-commitment quorum."""
    small = CheckerRing(n=3, quorum=2)
    large = CheckerRing(n=QUORUM_F10, quorum=QUORUM_F10)
    best = {"sign": math.inf, "prepare": math.inf, "store": math.inf, "accumulate": math.inf}
    for ring, views, phases in (
        (small, 50, ("sign", "prepare", "store")),
        (large, 5, ("accumulate",)),
    ):
        deadline = time.perf_counter() + budget_s * len(phases)
        runs = 0
        while runs < 3 or time.perf_counter() < deadline:
            spent = ring.run_views(views)
            for phase in phases:
                calls = views * (1 if phase == "accumulate" else len(ring.checkers))
                best[phase] = min(best[phase], spent[phase] / calls)
            runs += 1
    return {
        "tee.checker_sign_us": best["sign"] * 1e6,
        "tee.checker_prepare_us": best["prepare"] * 1e6,
        "tee.checker_store_us": best["store"] * 1e6,
        "tee.accumulate_us": best["accumulate"] * 1e6,
    }


def _codec_cells(budget_s: float) -> dict[str, float]:
    proposal, vote = capture_damysus_messages()
    request = ClientRequest(3, Transaction(3, 11, 256, 5.0, 7))
    wire = {name: encode_message(msg) for name, msg in
            (("proposal", proposal), ("vote", vote), ("request", request))}
    if decode_message(wire["proposal"]) != proposal or decode_message(wire["vote"]) != vote:
        raise AssertionError("codec round trip changed a captured message")
    return {
        "codec.encode_proposal_us": best_per_op_us(
            _repeat(lambda: encode_message(proposal), 20), budget_s),
        "codec.decode_proposal_us": best_per_op_us(
            _repeat(lambda: decode_message(wire["proposal"]), 10), budget_s),
        "codec.encode_vote_us": best_per_op_us(
            _repeat(lambda: encode_message(vote), 500), budget_s),
        "codec.decode_vote_us": best_per_op_us(
            _repeat(lambda: decode_message(wire["vote"]), 500), budget_s),
        "codec.decode_client_request_us": best_per_op_us(
            _repeat(lambda: decode_message(wire["request"]), 500), budget_s),
    }


def _crypto_cells(budget_s: float) -> dict[str, float]:
    message = b"ledger-micro-message" * 4
    hmac_scheme = HmacScheme(secret=b"ledger-micro")
    hmac_scheme.keygen(1)
    hmac_sig = hmac_scheme.sign(1, message)
    schnorr = SchnorrScheme(GROUP_TEST)
    for signer in range(QUORUM_F10):
        schnorr.keygen(signer)
    schnorr_sigs = [schnorr.sign(signer, message) for signer in range(QUORUM_F10)]
    if not (hmac_scheme.verify(message, hmac_sig) and schnorr.verify_batch(message, schnorr_sigs)):
        raise AssertionError("a freshly made signature did not verify")

    def schnorr_batch() -> int:
        schnorr.verify_batch(message, schnorr_sigs)
        return QUORUM_F10

    return {
        "crypto.hmac_sign_us": best_per_op_us(
            _repeat(lambda: hmac_scheme.sign(1, message), 2000), budget_s),
        "crypto.hmac_verify_us": best_per_op_us(
            _repeat(lambda: hmac_scheme.verify(message, hmac_sig), 2000), budget_s),
        "crypto.schnorr_sign_us": best_per_op_us(
            _repeat(lambda: schnorr.sign(0, message), 20), budget_s),
        "crypto.schnorr_verify_us": best_per_op_us(
            _repeat(lambda: schnorr.verify(message, schnorr_sigs[0]), 20), budget_s),
        "crypto.schnorr_batch_verify_us_per_sig": best_per_op_us(schnorr_batch, budget_s),
    }


def _mempool_cells(budget_s: float) -> dict[str, float]:
    count = 4_000
    rng = RngStream(11, "ledger-micro-mempool")
    txs = [
        Transaction(i % 16, i, 256, 0.0, rng.randint(0, 100)) for i in range(count)
    ]
    drained: list[PriorityMempool] = []

    def admit_batch() -> int:
        pool = PriorityMempool(256, 400, open_loop=False)
        for tx in txs:
            pool.admit(tx, 0.0)
        drained.append(pool)
        return count

    def take_batch() -> int:
        pool = drained.pop() if drained else _filled(txs)
        taken = 0
        while pool.pending():
            taken += len(pool.take_block(0.0))
        return taken

    def at_cap_batch() -> int:
        pool = PriorityMempool(256, 400, open_loop=False, max_txs=500)
        for tx in txs:
            pool.admit(tx, 0.0)
        return count

    cells = {"mempool.admit_us": best_per_op_us(admit_batch, budget_s)}
    cells["mempool.take_block_us_per_tx"] = best_per_op_us(take_batch, budget_s)
    cells["mempool.admit_at_cap_us"] = best_per_op_us(at_cap_batch, budget_s)
    return cells


def _filled(txs: list[Transaction]) -> PriorityMempool:
    pool = PriorityMempool(256, 400, open_loop=False)
    for tx in txs:
        pool.admit(tx, 0.0)
    return pool


def _sim_cell(budget_s: float) -> float:
    count = 20_000
    rng = RngStream(13, "ledger-micro-sim")
    delays = [rng.uniform(0.0, 100.0) for _ in range(count)]

    def batch() -> int:
        sim = Simulator()
        fired = [0]

        def fire() -> None:
            fired[0] += 1

        for delay in delays:
            sim.schedule(delay, fire)
        sim.run()
        if fired[0] != count:
            raise AssertionError("the simulator lost events")
        return count

    return best_per_op_us(batch, budget_s)


def run_micro_cells(budget_s: float = CELL_BUDGET_S) -> dict[str, float]:
    """Every micro cell, ``budget_s`` seconds each; values in microseconds."""
    cells: dict[str, float] = {}
    cells.update(_codec_cells(budget_s))
    cells.update(_crypto_cells(budget_s))
    cells.update(_tee_cells(budget_s))
    cells.update(_mempool_cells(budget_s))
    cells["sim.schedule_run_us_per_event"] = _sim_cell(budget_s)
    return cells
