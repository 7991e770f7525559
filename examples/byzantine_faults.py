#!/usr/bin/env python3
"""Byzantine behaviour showcase: why the trusted components matter.

Part 1 replays the paper's Section 4 counter-example: a 2f+1 streamlined
protocol equipped only with TrInc-style trusted counters loses safety -
node k executes a block conflicting with what node j already executed,
even though every certificate k verified was genuine.

Part 2 replays the same attack against Damysus's Checker + Accumulator
and shows each avenue is refused by the trusted components.

Part 3 runs live Damysus deployments with equivocating and stale-leader
adversaries and shows consensus stays safe and live.
"""

from repro.adversary import get_adversary
from repro.analysis import run_checker_scenario, run_counter_scenario
from repro.config import SystemConfig
from repro.costs import CostModel
from repro.runtime.sim import ConsensusSystem


def banner(title: str) -> None:
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main() -> None:
    banner("Part 1: plain trusted counters are NOT enough (Section 4.1)")
    result = run_counter_scenario()
    print(result.describe())

    banner("Part 2: the same attack against Checker + Accumulator")
    result = run_checker_scenario()
    print(result.describe())
    print(f"(trusted components refused {result.refusals} attack attempts)")

    banner("Part 3: live adversaries against full protocol runs")
    scenarios = [
        ("hotstuff", "equivocate", "equivocating leader"),
        ("damysus", "equivocate", "equivocating leader"),
        ("damysus", "stale", "stale (understating) leader"),
    ]
    for protocol, attack, label in scenarios:
        adversary = get_adversary(attack).replica_class(protocol)
        config = SystemConfig(
            protocol=protocol,
            f=1,
            payload_bytes=0,
            block_size=10,
            timeout_ms=300,
            costs=CostModel.zero(),
        )
        system = ConsensusSystem(config, replica_overrides={1: adversary})
        outcome = system.run_until_views(5, max_time_ms=120_000)
        print(
            f"{protocol:10s} + {label:28s} -> "
            f"{outcome.committed_blocks} blocks committed, "
            f"safety {'OK' if outcome.safe else 'VIOLATED'}"
        )


if __name__ == "__main__":
    main()
