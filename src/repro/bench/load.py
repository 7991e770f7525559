"""Client-driven load: Poisson clients at a configured arrival rate.

The paper's open-loop figures (6-8) bypass clients entirely - replicas
synthesize full blocks - so they measure the consensus core, not the
ingest path.  ``repro run --rate`` closes that gap: Poisson clients
submit at a configurable aggregate rate (with a payload-size mix and
optional fee draws) against replicas running the full admission
pipeline, on either runtime.  :func:`load_config` and
:func:`poisson_clients` are the rule that turns a rate into a
:class:`SystemConfig`; :func:`load_report` reads a run of it - a
:class:`~repro.runtime.sim.ConsensusSystem` (deterministic: the same seed
gives a bit-identical :class:`LoadReport`) or a
:class:`~repro.runtime.asyncio_net.LocalCluster` on localhost TCP - from
its ``clients`` and ``replicas``.

The report gives saturation throughput, p50/p99 end-to-end latency, the
admission-drop and eviction rates the bounded mempool produces, and the
*commit multiplicity*: client transactions carried by the committed
chain per distinct request among them - 1.00 when every request takes
one trip through consensus.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from repro.config import SystemConfig
from repro.core.executor import Ledger
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.runtime.asyncio_net import LocalCluster
    from repro.runtime.sim import ConsensusSystem


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 on empty input)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * fraction // 1))  # ceil without math
    return sorted_values[min(int(rank), len(sorted_values)) - 1]


def commit_multiplicity(ledger: Ledger) -> float:
    """Client transactions in ``ledger``'s chain per distinct key (0.0: none)."""
    keys = [key for block in ledger.executed for key in block.client_keys()]
    return len(keys) / len(set(keys)) if keys else 0.0


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one client-driven run (either runtime)."""

    runtime: str
    protocol: str
    num_replicas: int
    senders: int
    offered_rate_per_s: float
    duration_ms: float
    submitted: int
    completed: int
    committed_blocks: int
    throughput_per_s: float  # completed transactions per second
    p50_ms: float
    p99_ms: float
    dropped: int
    retried: int
    drop_rate: float  # dropped / submitted
    evicted: int
    eviction_rate: float  # evictions / pool admissions
    backpressure_engagements: int
    #: Read off the longest committed chain: copies carried per distinct
    #: client key, and re-carried transactions execution skipped.
    commit_multiplicity: float
    filtered_duplicates: int
    #: Residents dropped, over all pools, because another leader's block
    #: committed them.
    purged_on_commit: int
    #: Replies by admission verdict, aggregated over all clients.
    admission: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    def summary_rows(self) -> list[list[object]]:
        return [
            ["runtime", self.runtime],
            ["protocol", self.protocol],
            ["replicas", self.num_replicas],
            ["senders", self.senders],
            ["offered rate (tx/s)", f"{self.offered_rate_per_s:.0f}"],
            ["duration (ms)", f"{self.duration_ms:.0f}"],
            ["submitted", self.submitted],
            ["completed", self.completed],
            ["committed blocks", self.committed_blocks],
            ["throughput (tx/s)", f"{self.throughput_per_s:.1f}"],
            ["p50 latency (ms)", f"{self.p50_ms:.2f}"],
            ["p99 latency (ms)", f"{self.p99_ms:.2f}"],
            ["dropped", self.dropped],
            ["retried", self.retried],
            ["drop rate", f"{self.drop_rate:.4f}"],
            ["evicted", self.evicted],
            ["eviction rate", f"{self.eviction_rate:.4f}"],
            ["backpressure engagements", self.backpressure_engagements],
            ["commit multiplicity", f"{self.commit_multiplicity:.2f}"],
            ["filtered duplicates", self.filtered_duplicates],
            ["purged on commit", self.purged_on_commit],
        ]


def poisson_clients(rate_per_s: float, senders: int) -> dict[str, Any]:
    """The :class:`SystemConfig` fields that seat ``senders`` Poisson clients
    offering ``rate_per_s`` overall in place of the synthetic block supply.

    Each client submits at ``rate / senders``, so the aggregate arrival
    process is Poisson at the requested rate.
    """
    if rate_per_s <= 0:
        raise ConfigError("rate_per_s must be positive")
    if senders < 1:
        raise ConfigError("senders must be at least 1")
    return dict(
        open_loop=False,
        num_clients=senders,
        client_interval_ms=senders * 1000.0 / rate_per_s,
        client_poisson=True,
    )


def load_config(
    protocol: str = "damysus",
    *,
    rate_per_s: float,
    senders: int,
    f: int = 1,
    seed: int = 1,
    payload_bytes: int = 256,
    payload_mix: tuple[int, ...] = (),
    max_fee: int = 0,
    retry_limit: int = 0,
    block_size: int = 400,
    max_block_bytes: int = 0,
    mempool_max_txs: int = 100_000,
    mempool_max_bytes: int = 0,
    sender_rate_limit: float = 0.0,
    sender_rate_burst: float = 32.0,
    timeout_ms: float = 2_000.0,
) -> SystemConfig:
    """A client-driven :class:`SystemConfig` offering ``rate_per_s`` overall
    (see :func:`poisson_clients`)."""
    return SystemConfig(
        protocol=protocol,
        f=f,
        seed=seed,
        payload_bytes=payload_bytes,
        block_size=block_size,
        timeout_ms=timeout_ms,
        client_payload_mix=tuple(payload_mix),
        client_max_fee=max_fee,
        client_retry_limit=retry_limit,
        mempool_max_txs=mempool_max_txs,
        mempool_max_bytes=mempool_max_bytes,
        max_block_bytes=max_block_bytes,
        sender_rate_limit=sender_rate_limit,
        sender_rate_burst=sender_rate_burst,
        **poisson_clients(rate_per_s, senders),
    )


def load_report(
    runtime: str,
    deployment: ConsensusSystem | LocalCluster,
    committed_blocks: int,
    duration_ms: float,
    offered_rate_per_s: float,
) -> LoadReport:
    """What ``deployment``'s clients saw, and its replicas' pools and chains.

    ``committed_blocks`` and ``duration_ms`` are the runtime's own count
    and clock: the simulator's monitor and virtual time, or the slowest
    TCP replica and the seconds the cluster ran.
    """
    clients, replicas = deployment.clients, deployment.replicas
    latencies = sorted(
        record.latency_ms for client in clients for record in client.completed
    )
    submitted = sum(client.submitted_total for client in clients)
    completed = len(latencies)
    dropped = sum(client.dropped for client in clients)
    retried = sum(client.retried for client in clients)
    admission: dict[str, int] = {}
    for client in clients:
        for name, count in client.verdicts.items():
            admission[name] = admission.get(name, 0) + count
    stats = [replica.mempool.stats() for replica in replicas]
    chain = max((replica.ledger for replica in replicas), key=Ledger.height)
    evicted = sum(int(s["evicted"]) for s in stats)
    admitted = sum(int(s["admitted"]) for s in stats)
    seconds = duration_ms / 1000.0 if duration_ms > 0 else 0.0
    return LoadReport(
        runtime=runtime,
        protocol=replicas[0].config.protocol,
        num_replicas=len(replicas),
        senders=len(clients),
        offered_rate_per_s=offered_rate_per_s,
        duration_ms=duration_ms,
        submitted=submitted,
        completed=completed,
        committed_blocks=committed_blocks,
        throughput_per_s=completed / seconds if seconds else 0.0,
        p50_ms=percentile(latencies, 0.50),
        p99_ms=percentile(latencies, 0.99),
        dropped=dropped,
        retried=retried,
        drop_rate=dropped / submitted if submitted else 0.0,
        evicted=evicted,
        eviction_rate=evicted / admitted if admitted else 0.0,
        backpressure_engagements=sum(
            int(s["backpressure_engagements"]) for s in stats
        ),
        commit_multiplicity=commit_multiplicity(chain),
        filtered_duplicates=chain.filtered,
        purged_on_commit=sum(int(s["purged"]) for s in stats),
        admission=admission,
    )

