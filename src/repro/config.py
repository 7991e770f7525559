"""System configuration for one simulated deployment.

One :class:`SystemConfig` fully determines a run: protocol, fault
threshold, workload, deployment geography, crypto scheme, cost model and
seed.  Everything downstream (replica count, quorum size, latency model)
is derived from it, so experiments are declarative parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costs import DEFAULT_COSTS, CostModel
from repro.errors import ConfigError
from repro.sim.regions import EU_REGIONS, RegionMap


@dataclass(frozen=True)
class SystemConfig:
    """Declarative description of one simulated consensus deployment."""

    protocol: str = "damysus"
    f: int = 1
    payload_bytes: int = 256  # per-transaction payload (paper: 0 or 256)
    block_size: int = 400  # transactions per block (paper: 400)
    seed: int = 1
    regions: RegionMap = EU_REGIONS
    fifo_links: bool = False  # TCP-like per-link ordering
    # Constant-size quorum certificates via threshold signatures (original
    # HotStuff style) instead of ECDSA signature lists (DAMYSUS-impl
    # style).  Supported by basic HotStuff.
    compact_qcs: bool = False
    timeout_ms: float = 2_000.0  # pacemaker base view timeout
    timeout_jitter: float = 0.0  # +/- fraction of seeded pacemaker jitter (0 = off)
    max_timeout_ms: float = 0.0  # backoff ceiling (0 = 4x the base timeout)
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    use_real_crypto: bool = False  # Schnorr (True) vs fast HMAC (False)
    gst_ms: float = 0.0  # 0 disables the pre-GST chaos wrapper
    delta_ms: float = 400.0  # post-GST delay bound
    pre_gst_extra_ms: float = 300.0  # max adversarial delay before GST
    open_loop: bool = True  # synthetic full blocks vs client-driven
    num_clients: int = 0
    client_interval_ms: float = 1.0  # per-client submission interval
    client_total_txs: int = 0  # 0 = unlimited
    client_poisson: bool = False  # exponential inter-arrivals vs periodic
    client_payload_mix: tuple[int, ...] = ()  # () = fixed payload_bytes
    client_max_fee: int = 0  # clients draw fees in [0, max]; 0 = all-zero
    client_retry_limit: int = 0  # resubmissions after a full NACK
    # -- ingest pipeline (repro.mempool) ---------------------------------
    mempool_max_txs: int = 100_000  # resident-transaction cap
    mempool_max_bytes: int = 0  # resident-byte cap (0 = unbounded)
    max_block_bytes: int = 0  # per-proposal byte cap (0 = unbounded)
    sender_rate_limit: float = 0.0  # admitted txs/ms per sender (0 = off)
    sender_rate_burst: float = 32.0  # token-bucket burst capacity
    # -- checkpoints & state transfer ------------------------------------
    checkpoint_interval: int = 0  # certify a checkpoint every N commits (0 = off)

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ConfigError("f must be at least 1")
        if self.block_size < 1:
            raise ConfigError("block_size must be positive")
        if self.payload_bytes < 0:
            raise ConfigError("payload_bytes must be non-negative")
        if not 0.0 <= self.timeout_jitter < 1.0:
            raise ConfigError("timeout_jitter must be in [0, 1)")
        if self.max_timeout_ms < 0:
            raise ConfigError("max_timeout_ms must be non-negative (0 = default cap)")
        if 0 < self.max_timeout_ms < self.timeout_ms:
            raise ConfigError("max_timeout_ms must be at least timeout_ms")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be non-negative")
        if any(p < 0 for p in self.client_payload_mix):
            raise ConfigError("client_payload_mix entries must be non-negative")
        if self.client_max_fee < 0:
            raise ConfigError("client_max_fee must be non-negative")
        if self.client_retry_limit < 0:
            raise ConfigError("client_retry_limit must be non-negative")
        if self.mempool_max_txs < 1:
            raise ConfigError("mempool_max_txs must be positive")
        if self.mempool_max_bytes < 0 or self.max_block_bytes < 0:
            raise ConfigError("byte caps must be non-negative (0 = unbounded)")
        if self.sender_rate_limit < 0:
            raise ConfigError("sender_rate_limit must be non-negative")
        if self.sender_rate_burst < 1:
            raise ConfigError("sender_rate_burst must be at least 1")

