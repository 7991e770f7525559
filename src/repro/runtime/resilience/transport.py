"""Socket-level fault injection: the :class:`FaultDecider`.

The simulator applies a :class:`~repro.core.faults.FaultPlan` at the
point where a message enters the network; the asyncio runtime applies
the *same rules* at the point where a frame enters a peer connection.
:class:`FaultDecider` sits between the protocol machine and the per-peer
outbound queues of :class:`repro.runtime.asyncio_net.AsyncioRuntime`:
every consensus frame consults it once, on the sending side, so each
frame crosses exactly one fault pipeline (mirroring the simulated
network) and a symmetric partition cuts both directions because both
senders apply the plan.

Determinism contract: the random draws for the k-th frame on link
(src, dst) come from a fresh :class:`~repro.core.rng.RngStream` named
``netfault:{src}->{dst}:{k}`` and derived from the master seed - a pure
function of (seed, src, dst, k), independent of wall-clock timing.  Two
runs with the same seed and plan therefore inject identically at every
(link, sequence) coordinate; :func:`decision_digest` fingerprints that
decision table so runs can prove it cheaply.  Time-*windowed* rules
(partition healing) additionally gate on the host's wall clock, which
the caller passes in as ``now_ms``.

This module is pure (no sockets, no clock reads) and stays inside the
determinism lint perimeter; the asyncio glue lives in
:mod:`repro.runtime.asyncio_net`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.faults import FaultAction, FaultRule, evaluate_rules, unwindowed
from repro.core.rng import RngStream

#: Frames per link covered by :func:`decision_digest`'s decision table.
DIGEST_HORIZON = 64


def _frame_stream(seed: int, src: int, dst: int, seq: int) -> RngStream:
    """The seeded stream deciding the fate of one frame on one link."""
    return RngStream(seed, f"netfault:{src}->{dst}:{seq}")


def _kind_of(action: FaultAction | None) -> str:
    if action is None:
        return "pass"
    if action.drop:
        return "drop"
    parts = []
    if action.duplicates:
        parts.append("duplicate")
    if action.extra_delay_ms > 0.0:
        parts.append("delay")
    return "+".join(parts) if parts else "pass"


@dataclass(frozen=True)
class FaultRecord:
    """One applied fault-injection decision (pass decisions are not kept)."""

    src: int
    dst: int
    seq: int
    kind: str
    duplicates: int = 0
    extra_delay_ms: float = 0.0


class FaultDecider:
    """Seeded, per-frame fault decisions for one sending host.

    One decider serves one replica process; the (src, dst) pair of every
    outbound frame keys a per-link sequence counter, and the decision for
    sequence number k is drawn from the ``netfault:{src}->{dst}:{k}``
    stream.  ``set_rules`` supports live fault-plan reloads (the
    net-chaos control plane heals a partition by rewriting the spec
    file); sequence counters - and hence the decision table - are not
    disturbed by a reload.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule],
        seed: int,
        *,
        max_records: int = 50_000,
    ) -> None:
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self.max_records = max_records
        self._next_seq: dict[tuple[int, int], int] = {}
        #: Applied (non-pass) decisions, in decision order, up to the cap.
        self.records: list[FaultRecord] = []
        self.records_truncated = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def set_rules(self, rules: Iterable[FaultRule]) -> None:
        """Replace the active rule set (live fault-plan reload)."""
        self.rules = tuple(rules)

    def decide(self, src: int, dst: int, payload: Any, now_ms: float) -> FaultAction | None:
        """The fate of the next frame on (src, dst) at wall time ``now_ms``."""
        link = (src, dst)
        seq = self._next_seq.get(link, 0)
        self._next_seq[link] = seq + 1
        if not self.rules:
            return None
        rng = _frame_stream(self.seed, src, dst, seq)
        action = evaluate_rules(self.rules, src, dst, payload, now_ms, rng)
        if action is not None:
            self._record(src, dst, seq, action)
        return action

    def counts(self) -> dict[str, int]:
        """Applied-fault counters for health reporting."""
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
        }

    def _record(self, src: int, dst: int, seq: int, action: FaultAction) -> None:
        if action.drop:
            self.dropped += 1
        if action.duplicates:
            self.duplicated += action.duplicates
        if action.extra_delay_ms > 0.0:
            self.delayed += 1
        if len(self.records) >= self.max_records:
            self.records_truncated += 1
            return
        self.records.append(
            FaultRecord(
                src=src,
                dst=dst,
                seq=seq,
                kind=_kind_of(action),
                duplicates=action.duplicates,
                extra_delay_ms=action.extra_delay_ms,
            )
        )


def decision_table(
    rules: Sequence[FaultRule],
    seed: int,
    pids: Sequence[int],
    horizon: int = DIGEST_HORIZON,
) -> list[FaultRecord]:
    """The deterministic decision table: every link x sequence decision.

    Pure function of (seed, rules, pids, horizon): every rule acts as it
    does inside its activity window (so window gating, which depends on
    wall-clock phase alignment at run time, does not enter the table),
    drawing from the same per-frame streams the live
    :class:`FaultDecider` uses.  Frames whose run-time window state
    matches the table (in particular every un-windowed probabilistic
    rule) are injected exactly as tabled.
    """
    always = [unwindowed(rule) for rule in rules]
    entries: list[FaultRecord] = []
    for src in sorted(pids):
        for dst in sorted(pids):
            if src == dst:
                continue
            for seq in range(horizon):
                rng = _frame_stream(seed, src, dst, seq)
                action = evaluate_rules(always, src, dst, None, 0.0, rng)
                entries.append(
                    FaultRecord(
                        src=src,
                        dst=dst,
                        seq=seq,
                        kind=_kind_of(action),
                        duplicates=0 if action is None else action.duplicates,
                        extra_delay_ms=0.0 if action is None else action.extra_delay_ms,
                    )
                )
    return entries


def decision_digest(
    rules: Sequence[FaultRule],
    seed: int,
    pids: Sequence[int],
    horizon: int = DIGEST_HORIZON,
) -> str:
    """Hex fingerprint of :func:`decision_table`.

    Two runs with the same (seed, plan, cluster) report the same digest;
    a differing digest proves the runs injected from different decision
    tables.  ``repro net-chaos`` prints it as the fault-injection
    decision log's identity.
    """
    hasher = hashlib.sha256()
    for entry in decision_table(rules, seed, pids, horizon):
        hasher.update(
            f"{entry.src}>{entry.dst}#{entry.seq}:{entry.kind}"
            f":{entry.duplicates}:{entry.extra_delay_ms:.6f};".encode()
        )
    return hasher.hexdigest()
