"""Clients for the closed-loop (Fig 9) experiments and ``repro run --rate``.

A client submits transactions at a configurable interval, broadcasting
each request to all replicas (the paper's client interaction model:
"clients send requests to replicas, and replicas send replies to
clients").  End-to-end latency is measured from submission to the first
execution reply, and throughput from the completion timestamps.

The admission pipeline talks back: replicas NACK rejected submissions
with an explicit :class:`~repro.core.mempool.AdmissionVerdict`, and the
client records them - a transaction NACKed by *every* replica is
dropped (or resubmitted, up to ``retry_limit``) instead of silently
inflating the in-flight set forever.  ``dropped``/``retried`` and the
per-verdict reply histogram feed the ``repro run --rate`` load report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, ClassVar, Sequence

from repro.config import SystemConfig
from repro.core.clock import Clock
from repro.core.mempool import AdmissionVerdict, Transaction
from repro.core.messages import ClientReply, ClientRequest
from repro.core.rng import RngStream
from repro.runtime.machine import Machine

_ACCEPTED = AdmissionVerdict.ACCEPTED


@dataclass
class CompletedRequest:
    """One transaction's client-side record."""

    tx_id: int
    submitted_at: float
    first_reply_at: float

    @property
    def latency_ms(self) -> float:
        return self.first_reply_at - self.submitted_at


class Client(Machine):
    """An open- or closed-loop load generator."""

    SERVICE_HANDLERS: ClassVar[dict[type, str]] = {ClientReply: "_handle_reply"}

    def __init__(
        self,
        pid: int,
        clock: Clock,
        client_id: int,
        replica_pids: list[int],
        payload_bytes: int,
        interval_ms: float,
        total_txs: int = 0,
        rng: "RngStream | None" = None,
        poisson: bool | None = None,
        payload_mix: "Sequence[int] | None" = None,
        max_fee: int = 0,
        retry_limit: int = 0,
    ) -> None:
        super().__init__(pid, clock)
        self.client_id = client_id
        self.replica_pids = list(replica_pids)
        self.payload_bytes = payload_bytes
        self.interval_ms = interval_ms
        self.total_txs = total_txs  # 0 = unlimited
        # With an RNG, inter-arrival times are exponential (a Poisson
        # process at rate 1/interval_ms); without, arrivals are periodic.
        # ``poisson`` overrides that historical inference, so a client
        # can draw payload sizes and fees without changing its arrivals.
        self.rng = rng
        self.poisson = (rng is not None) if poisson is None else poisson
        self.payload_mix = list(payload_mix) if payload_mix else None
        self.max_fee = max_fee
        self.retry_limit = retry_limit
        self._tx_ids = itertools.count()
        self.submitted: dict[int, float] = {}
        self.completed: list[CompletedRequest] = []
        # -- admission accounting -----------------------------------------
        self.submitted_total = 0  # first submissions (retries excluded)
        self.dropped = 0  # transactions NACKed by every replica, abandoned
        self.retried = 0  # resubmissions after a full NACK
        #: Replies received, by verdict (every reply counts, so the
        #: ``accepted`` bucket sees up to one entry per replica per tx).
        self.verdicts: dict[str, int] = {v.value: 0 for v in AdmissionVerdict}
        self._inflight: dict[int, Transaction] = {}
        self._nacks: dict[int, set[int]] = {}
        self._retries_used: dict[int, int] = {}

    @classmethod
    def from_config(
        cls,
        config: SystemConfig,
        cid: int,
        pid: int,
        replica_pids: list[int],
        clock: Clock,
    ) -> "Client":
        """Client ``cid`` of ``config``'s deployment, seated at transport ``pid``.

        The one rule both runtimes seat clients by.  Payload mixes and fee
        draws need client randomness even when arrivals stay periodic; the
        explicit ``poisson`` flag keeps the two concerns independent (and
        historical seeds bit-identical).
        """
        needs_rng = bool(
            config.client_poisson or config.client_payload_mix or config.client_max_fee
        )
        return cls(
            pid=pid,
            clock=clock,
            client_id=cid,
            replica_pids=replica_pids,
            payload_bytes=config.payload_bytes,
            interval_ms=config.client_interval_ms,
            total_txs=config.client_total_txs,
            rng=RngStream(config.seed, f"client:{cid}") if needs_rng else None,
            poisson=config.client_poisson,
            payload_mix=config.client_payload_mix or None,
            max_fee=config.client_max_fee,
            retry_limit=config.client_retry_limit,
        )

    def start(self) -> None:
        self._submit_next()

    def _make_transaction(self, tx_id: int) -> Transaction:
        payload = self.payload_bytes
        if self.payload_mix and self.rng is not None:
            payload = self.rng.choice(self.payload_mix)
        fee = 0
        if self.max_fee and self.rng is not None:
            fee = self.rng.randint(0, self.max_fee)
        return Transaction(self.client_id, tx_id, payload, self.now, fee)

    def _submit_next(self) -> None:
        if self.crashed:
            return
        if self.total_txs and self.submitted_total >= self.total_txs:
            return
        tx_id = next(self._tx_ids)
        tx = self._make_transaction(tx_id)
        self.submitted[tx_id] = self.now
        self.submitted_total += 1
        self._inflight[tx_id] = tx
        self._broadcast_request(tx)
        if self.poisson and self.rng is not None:
            delay = self.rng.expovariate(1.0 / max(self.interval_ms, 0.001))
        else:
            delay = self.interval_ms
        self.set_timer(max(delay, 0.001), self._submit_next)

    def _broadcast_request(self, tx: Transaction) -> None:
        self.broadcast(self.replica_pids, ClientRequest(self.client_id, tx))

    def on_message(self, sender: int, payload: Any) -> None:
        if self.crashed:
            return
        service = self._service.get(type(payload))
        if service is not None:
            service(self, sender, payload)

    def _handle_reply(self, sender: int, payload: ClientReply) -> None:
        if payload.client_id != self.client_id:
            return
        verdict = payload.verdict
        # ``_value_`` is the member's value as stored; ``.value`` reads the
        # same string through the enum's property, once per reply.
        self.verdicts[verdict._value_] += 1
        if verdict is not _ACCEPTED:
            self._on_nack(sender, payload.tx_id)
            return
        submitted = self.submitted.pop(payload.tx_id, None)
        if submitted is None:
            return  # already completed (first reply wins)
        self._forget(payload.tx_id)
        self.completed.append(
            CompletedRequest(
                tx_id=payload.tx_id,
                submitted_at=submitted,
                first_reply_at=self.now,
            )
        )

    def _on_nack(self, sender: int, tx_id: int) -> None:
        """Record a rejection; drop or retry once every replica refused."""
        if tx_id not in self.submitted:
            return  # completed (some replica admitted it) or already dropped
        nacks = self._nacks.setdefault(tx_id, set())
        nacks.add(sender)
        if len(nacks) < len(self.replica_pids):
            return
        self._nacks.pop(tx_id, None)
        used = self._retries_used.get(tx_id, 0)
        tx = self._inflight.get(tx_id)
        if tx is not None and used < self.retry_limit:
            self._retries_used[tx_id] = used + 1
            self.retried += 1
            self._broadcast_request(tx)
            return
        del self.submitted[tx_id]
        self._forget(tx_id)
        self.dropped += 1

    def _forget(self, tx_id: int) -> None:
        self._inflight.pop(tx_id, None)
        self._nacks.pop(tx_id, None)
        self._retries_used.pop(tx_id, None)

    # -- client-side metrics ---------------------------------------------------

    def mean_latency_ms(self) -> float:
        if not self.completed:
            return 0.0
        return sum(c.latency_ms for c in self.completed) / len(self.completed)
