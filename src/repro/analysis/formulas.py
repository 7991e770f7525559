"""First-order analytic latency model, cross-checked against simulation.

Commit latency of the basic (non-chained) protocols decomposes into
message legs plus CPU:

    latency ~ legs x mean_one_way + leader_cpu + backup_cpu

where ``legs`` is the number of sequential message delays between a
proposal's creation and its execution - the proposal, then a vote and a
certificate leg per core phase (5 for the 2-phase protocols: proposal,
votes, certificate, votes, decide; 7 for the 3-phase ones) - and the CPU
terms charge quorum-sized signature verification, vote
signing/TEE calls, and the leader's N-copy proposal serialization.

The model is deliberately first-order - no queueing, no jitter - yet
lands within a few tens of percent of the simulator and predicts the
protocols' latency *ordering* exactly, which is the cross-check the
tests pin down: if simulator and closed form ever diverge wildly, one of
them is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.mempool import TX_METADATA_BYTES
from repro.errors import ConfigError
from repro.protocols.registry import get_spec


@dataclass(frozen=True)
class LatencyPrediction:
    protocol: str
    f: int
    legs: int
    network_ms: float
    leader_cpu_ms: float
    backup_cpu_ms: float

    @property
    def total_ms(self) -> float:
        return self.network_ms + self.leader_cpu_ms + self.backup_cpu_ms


def mean_one_way_ms(config: SystemConfig, num_nodes: int) -> float:
    """Average one-way delay between distinct deployed nodes."""
    placement = config.regions.assign_round_robin(num_nodes)
    total, pairs = 0.0, 0
    for i in range(num_nodes):
        for j in range(num_nodes):
            if i == j:
                continue
            total += config.regions.latency(placement[i], placement[j])
            pairs += 1
    return total / pairs if pairs else 0.0


def predict_latency(config: SystemConfig) -> LatencyPrediction:
    """Closed-form commit latency for a basic protocol deployment."""
    protocol = config.protocol
    spec = get_spec(protocol)
    if spec.chained:
        raise ConfigError(f"no latency formula for {protocol!r} (chained protocols pipeline)")
    n = spec.num_replicas(config.f)
    quorum = spec.quorum(config.f)
    costs = config.costs
    # One vote round per core phase, each aggregated by the leader at the
    # price of a quorum of verifications.
    vote_rounds = spec.core_phases
    legs = 2 * vote_rounds + 1

    block_bytes = config.block_size * (config.payload_bytes + TX_METADATA_BYTES)

    # A quorum forms when the median-ish voter responds; the mean one-way
    # delay is the natural first-order estimate for every leg.
    network = legs * mean_one_way_ms(config, n)

    # Leader: serialize N proposal copies, verify each vote of each round,
    # broadcast certificates (small next to the proposal).
    leader = n * costs.send_ms(block_bytes)
    leader += vote_rounds * quorum * costs.verify_ms
    uses_tee = bool(spec.trusted_components)
    if uses_tee:
        # accumList: quorum+1 enclave calls, each verify+sign.
        leader += (quorum + 1) * costs.tee_op_ms(signs=1, verifies=1)

    # Backup (on the critical path once per phase): verify the incoming
    # certificate, produce a vote.
    backup = vote_rounds * quorum * costs.verify_ms  # certificate checks
    if uses_tee:
        backup += vote_rounds * costs.tee_op_ms(signs=1, verifies=1)
    else:
        backup += vote_rounds * costs.sign_ms
    backup += costs.receive_ms(block_bytes)

    return LatencyPrediction(
        protocol=protocol,
        f=config.f,
        legs=legs,
        network_ms=network,
        leader_cpu_ms=leader,
        backup_cpu_ms=backup,
    )
