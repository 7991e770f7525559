"""Benchmark-side client machines for the TCP workloads.

``repro.protocols.client.Client`` re-arms its submission timer from
*now*, so when the event loop stalls it quietly submits less and its
latencies omit the wait the stall imposed on later requests.  The two
machines here are measurement instruments instead:

* :class:`PacedClient` (open loop) follows an absolute due-time schedule
  drawn up front from the seed.  A late timer sends every request that
  has fallen due, latency runs from the *due* time, and a request that
  was never sent still counts as due - and therefore as failed.
* :class:`ClosedLoopClient` keeps a fixed number of requests outstanding
  and submits the next one the moment a committed reply arrives, so its
  due time is its send time.

Both sit on the public ``Machine`` API only (``send`` / ``set_timer`` /
``on_message``) and are seated on ``AsyncioRuntime`` the way
``run_load_net`` seats ``Client``: transport pids after the replicas,
every request broadcast to every replica, first committed reply wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.clock import Clock
from repro.core.mempool import AdmissionVerdict, Transaction
from repro.core.messages import ClientReply, ClientRequest
from repro.core.rng import RngStream
from repro.runtime.machine import Machine


@dataclass(frozen=True)
class DueRequest:
    """One scheduled submission, relative to the client's start."""

    due_ms: float
    payload_bytes: int
    fee: int


@dataclass
class RequestRecord:
    """What happened to one due request (times in clock ms)."""

    tx_id: int
    due_ms: float
    sent_ms: float | None = None
    done_ms: float | None = None
    rejected: bool = False  # NACKed by every replica


def poisson_schedule(
    seed: int,
    client_id: int,
    *,
    rate_per_s: float,
    duration_s: float,
    payload_mix: tuple[int, ...],
    max_fee: int,
) -> list[DueRequest]:
    """Poisson arrivals over ``duration_s`` with drawn payloads and fees."""
    rng = RngStream(seed, f"ledger-client:{client_id}")
    schedule: list[DueRequest] = []
    at_ms = 0.0
    horizon_ms = duration_s * 1000.0
    while True:
        at_ms += rng.expovariate(rate_per_s / 1000.0)
        if at_ms >= horizon_ms:
            return schedule
        payload = rng.choice(payload_mix)
        fee = rng.randint(0, max_fee) if max_fee else 0
        schedule.append(DueRequest(at_ms, payload, fee))


class BenchClient(Machine):
    """Record keeping and reply handling common to both clients."""

    def __init__(
        self, pid: int, clock: Clock, client_id: int, replica_pids: list[int]
    ) -> None:
        super().__init__(pid, clock)
        self.client_id = client_id
        self.replica_pids = list(replica_pids)
        self.records: list[RequestRecord] = []
        self.stray_replies = 0  # replies naming a tx this client never made
        self.inflight = 0  # sent, neither committed nor rejected yet
        self.stopped = False
        self._nacks: dict[int, set[int]] = {}

    def _submit(self, due_ms: float, payload_bytes: int, fee: int) -> None:
        """Record one due request and broadcast it now."""
        now = self.now
        record = RequestRecord(tx_id=len(self.records), due_ms=due_ms, sent_ms=now)
        self.records.append(record)
        self.inflight += 1
        request = ClientRequest(
            self.client_id,
            Transaction(self.client_id, record.tx_id, payload_bytes, now, fee),
        )
        for pid in self.replica_pids:
            self.send(pid, request)

    def on_message(self, sender: int, payload: Any) -> None:
        if not isinstance(payload, ClientReply) or payload.client_id != self.client_id:
            return
        if not 0 <= payload.tx_id < len(self.records):
            self.stray_replies += 1
            return
        record = self.records[payload.tx_id]
        if record.done_ms is not None or record.rejected:
            return  # first committed reply wins
        if payload.verdict is AdmissionVerdict.ACCEPTED:
            record.done_ms = self.now
            self.inflight -= 1
            self._nacks.pop(payload.tx_id, None)
            self.on_committed(record)
            return
        nacks = self._nacks.setdefault(payload.tx_id, set())
        nacks.add(sender)
        if len(nacks) == len(self.replica_pids):
            record.rejected = True
            self.inflight -= 1
            del self._nacks[payload.tx_id]

    def on_committed(self, record: RequestRecord) -> None:
        """Hook: one request just received its first committed reply."""

    def stop(self) -> None:
        """Submit nothing further, so the requests in flight can drain."""
        self.stopped = True


class PacedClient(BenchClient):
    """Open loop: submits on an absolute schedule, however late the timer."""

    def __init__(
        self,
        pid: int,
        clock: Clock,
        client_id: int,
        replica_pids: list[int],
        schedule: list[DueRequest],
    ) -> None:
        super().__init__(pid, clock, client_id, replica_pids)
        self.schedule = schedule
        self.started_ms = 0.0
        self._next = 0

    def start(self) -> None:
        self.started_ms = self.now
        self._arm()

    def _arm(self) -> None:
        if self._next < len(self.schedule) and not self.stopped:
            due_ms = self.started_ms + self.schedule[self._next].due_ms
            self.set_timer(max(due_ms - self.now, 0.0), self._fire)

    def _fire(self) -> None:
        now = self.now
        while self._next < len(self.schedule):
            due = self.schedule[self._next]
            if self.started_ms + due.due_ms > now:
                break
            self._next += 1
            self._submit(self.started_ms + due.due_ms, due.payload_bytes, due.fee)
        self._arm()

    def unsent(self) -> list[RequestRecord]:
        """Due-but-never-sent requests (a run cut short), as failed records."""
        return [
            RequestRecord(tx_id=self._next + i, due_ms=self.started_ms + due.due_ms)
            for i, due in enumerate(self.schedule[self._next :])
        ]


class ClosedLoopClient(BenchClient):
    """Closed loop: ``outstanding`` requests in flight, refilled on reply."""

    def __init__(
        self,
        pid: int,
        clock: Clock,
        client_id: int,
        replica_pids: list[int],
        outstanding: int,
        payload_bytes: int,
    ) -> None:
        super().__init__(pid, clock, client_id, replica_pids)
        self.window = outstanding
        self.payload_bytes = payload_bytes

    def start(self) -> None:
        for _ in range(self.window):
            self._submit(self.now, self.payload_bytes, 0)

    def on_committed(self, record: RequestRecord) -> None:
        if not self.stopped:
            self._submit(self.now, self.payload_bytes, 0)
