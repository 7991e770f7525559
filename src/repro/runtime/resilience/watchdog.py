"""Liveness watchdog: per-replica last-commit tracking and health snapshots.

A BFT deployment that silently stops committing is worse than one that
crashes loudly.  :class:`LivenessWatchdog` tracks, per replica, the wall
time of the last commit (and the last sign of life of any kind) and
renders a structured :class:`HealthSnapshot` - the machine-readable
health surface in the per-process health files ``repro serve
--health-file`` writes.

Beyond stall detection, the snapshot reports each replica's
last-committed view and its *view lag* behind the most advanced replica
in the cluster, plus the cumulative catch-up retry count - so an
operator can see a replica falling behind before
it misses its catch-up window entirely.

Time is injected by the caller (the asyncio host passes its wall clock;
tests pass fixed values), so this module is deterministic and lint-clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ReplicaHealth:
    """One replica's liveness ledger."""

    pid: int
    alive: bool = True
    committed_blocks: int = 0
    last_commit_ms: float | None = None
    last_seen_ms: float | None = None
    last_committed_view: int = 0
    catchup_retries: int = 0

    def stalled(self, now_ms: float, stall_after_ms: float) -> bool:
        """True when no commit landed within the stall budget.

        A replica that never committed counts its silence from the first
        time the watchdog saw it, so a wedged-from-birth cluster is
        reported too.
        """
        if not self.alive:
            return False  # dead is reported separately, not as a stall
        reference = self.last_commit_ms
        if reference is None:
            reference = self.last_seen_ms
        if reference is None:
            return False
        return now_ms - reference > stall_after_ms


@dataclass(frozen=True)
class HealthSnapshot:
    """Structured cluster health at one instant."""

    at_ms: float
    stall_after_ms: float
    replicas: tuple[ReplicaHealth, ...]
    stalled_pids: tuple[int, ...]
    dead_pids: tuple[int, ...]

    @property
    def healthy(self) -> bool:
        """Every live replica committed within the stall budget."""
        return not self.stalled_pids

    @property
    def min_committed(self) -> int:
        live = [r.committed_blocks for r in self.replicas if r.alive]
        return min(live) if live else 0

    @property
    def highest_committed_view(self) -> int:
        """The most advanced committed view anywhere in the cluster."""
        views = [r.last_committed_view for r in self.replicas]
        return max(views) if views else 0

    def view_lag_of(self, pid: int) -> int:
        """Views between ``pid``'s last commit and the cluster frontier."""
        frontier = self.highest_committed_view
        for replica in self.replicas:
            if replica.pid == pid:
                return max(0, frontier - replica.last_committed_view)
        return 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "at_ms": self.at_ms,
            "stall_after_ms": self.stall_after_ms,
            "healthy": self.healthy,
            "stalled_pids": list(self.stalled_pids),
            "dead_pids": list(self.dead_pids),
            "highest_committed_view": self.highest_committed_view,
            "replicas": [
                {
                    "pid": r.pid,
                    "alive": r.alive,
                    "committed_blocks": r.committed_blocks,
                    "last_commit_ms": r.last_commit_ms,
                    "last_seen_ms": r.last_seen_ms,
                    "last_committed_view": r.last_committed_view,
                    "view_lag": self.view_lag_of(r.pid),
                    "catchup_retries": r.catchup_retries,
                }
                for r in self.replicas
            ],
        }


@dataclass
class LivenessWatchdog:
    """Tracks per-replica commit progress against a stall budget."""

    stall_after_ms: float = 30_000.0
    _replicas: dict[int, ReplicaHealth] = field(default_factory=dict)

    def _entry(self, pid: int) -> ReplicaHealth:
        entry = self._replicas.get(pid)
        if entry is None:
            entry = ReplicaHealth(pid=pid)
            self._replicas[pid] = entry
        return entry

    # -- feeding -----------------------------------------------------------

    def record_alive(self, pid: int, now_ms: float) -> None:
        """Any sign of life: a health report, a frame, a reconnect."""
        entry = self._entry(pid)
        entry.alive = True
        if entry.last_seen_ms is None or now_ms > entry.last_seen_ms:
            entry.last_seen_ms = now_ms

    def record_commit(
        self,
        pid: int,
        now_ms: float,
        committed_blocks: int | None = None,
        *,
        committed_view: int | None = None,
        catchup_retries: int | None = None,
    ) -> None:
        """A commit landed at ``pid`` at wall time ``now_ms``."""
        entry = self._entry(pid)
        entry.alive = True
        entry.last_commit_ms = now_ms
        entry.last_seen_ms = max(entry.last_seen_ms or 0.0, now_ms)
        if committed_blocks is None:
            entry.committed_blocks += 1
        else:
            entry.committed_blocks = committed_blocks
        if committed_view is not None:
            entry.last_committed_view = max(entry.last_committed_view, committed_view)
        if catchup_retries is not None:
            entry.catchup_retries = catchup_retries

    def record_dead(self, pid: int) -> None:
        """The supervisor observed the replica's process exit."""
        self._entry(pid).alive = False

    # -- reading -----------------------------------------------------------

    def snapshot(self, now_ms: float) -> HealthSnapshot:
        replicas = tuple(
            self._replicas[pid] for pid in sorted(self._replicas)
        )
        return HealthSnapshot(
            at_ms=now_ms,
            stall_after_ms=self.stall_after_ms,
            replicas=replicas,
            stalled_pids=tuple(
                r.pid for r in replicas if r.stalled(now_ms, self.stall_after_ms)
            ),
            dead_pids=tuple(r.pid for r in replicas if not r.alive),
        )
