"""Experiment runner: sweeps (protocol x f) cells with repetitions.

The paper runs 100 repetitions of 30 views per data point on EC2; a
deterministic simulator needs far fewer repetitions for stable averages,
so the defaults here are intentionally smaller (and every caller
states its scale).  Pass larger ``repetitions`` / ``views_per_run``
for paper-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import Summary, summarize_runs
from repro.config import SystemConfig
from repro.costs import DEFAULT_COSTS, CostModel
from repro.runtime.sim import ConsensusSystem, RunResult
from repro.sim.regions import EU_REGIONS, RegionMap


@dataclass
class ExperimentRunner:
    """Runs one deployment configuration across protocols and thresholds."""

    regions: RegionMap = EU_REGIONS
    payload_bytes: int = 256
    block_size: int = 400
    views_per_run: int = 8
    repetitions: int = 2
    base_seed: int = 1
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    max_time_ms: float = 600_000.0

    def config_for(self, protocol: str, f: int, seed: int, **overrides) -> SystemConfig:
        params = dict(
            protocol=protocol,
            f=f,
            payload_bytes=self.payload_bytes,
            block_size=self.block_size,
            seed=seed,
            regions=self.regions,
            costs=self.costs,
        )
        params.update(overrides)
        return SystemConfig(**params)

    def run_once(self, protocol: str, f: int, seed: int, **overrides) -> RunResult:
        system = ConsensusSystem(self.config_for(protocol, f, seed, **overrides))
        return system.run_until_views(self.views_per_run, max_time_ms=self.max_time_ms)

    def run_cell(self, protocol: str, f: int, **overrides) -> Summary:
        """Average ``repetitions`` seeded runs of one (protocol, f) cell."""
        runs = [
            self.run_once(protocol, f, seed=self.base_seed + rep, **overrides)
            for rep in range(self.repetitions)
        ]
        return summarize_runs(runs)

    def sweep(
        self, protocols: list[str], thresholds: list[int], jobs: int = 1
    ) -> dict[tuple[str, int], Summary]:
        """The full grid a throughput/latency figure needs.

        ``jobs > 1`` shards repetitions across worker processes (0 means
        one per core); the merged summaries are identical to ``jobs=1``.
        """
        from repro.bench.parallel import run_cells

        cells = [(protocol, f) for protocol in protocols for f in thresholds]
        return run_cells(self, cells, jobs=jobs)
