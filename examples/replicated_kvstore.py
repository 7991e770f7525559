#!/usr/bin/env python3
"""State machine replication: a fault-tolerant key-value store on Damysus.

Submits a mixed PUT/INCREMENT/DELETE workload through consensus while a
Byzantine leader equivocates, then replays every replica's log and shows
all state machines converged to the same digest - the application-level
payoff of consensus safety.
"""

from repro.adversary.registry import get_adversary
from repro.app.kvstore import OP_DELETE, OP_INCREMENT, OP_PUT, KVCommand
from repro.app.replicated import attach_state_machines
from repro.config import SystemConfig
from repro.costs import CostModel
from repro.runtime.sim import ConsensusSystem


def main() -> None:
    config = SystemConfig(
        protocol="damysus",
        f=1,
        payload_bytes=0,
        block_size=8,
        seed=21,
        timeout_ms=300,
        costs=CostModel.zero(),
    )
    equivocator = get_adversary("equivocate").replica_class("damysus")
    system = ConsensusSystem(config, replica_overrides={1: equivocator})
    app = attach_state_machines(system)

    workload = [
        KVCommand(OP_PUT, "user:1", "ada", seq=0),
        KVCommand(OP_PUT, "user:2", "grace", seq=1),
        KVCommand(OP_INCREMENT, "logins", seq=2),
        KVCommand(OP_INCREMENT, "logins", seq=3),
        KVCommand(OP_PUT, "user:1", "ada lovelace", seq=4),
        KVCommand(OP_INCREMENT, "logins", seq=5),
        KVCommand(OP_DELETE, "user:2", seq=6),
    ]
    for command in workload:
        app.submit_everywhere(command)

    result = system.run_until_views(6, max_time_ms=300_000)
    print(f"{result.committed_blocks} blocks committed "
          f"(Byzantine leader at replica 1, safety {'OK' if result.safe else 'BROKEN'})")

    digest = app.verify_convergence()
    print(f"all replicas converged; state digest {digest.hex()[:16]}")

    machine, results = app.replay(system.replicas[0])
    print()
    print("command log as executed:")
    for entry in results:
        outcome = entry.value if entry.value is not None else ("ok" if entry.ok else "miss")
        print(f"  {entry.command.op:5s} {entry.command.key:10s} -> {outcome}")
    print()
    print(f"final state: user:1={machine.get('user:1')!r}, "
          f"user:2={machine.get('user:2')!r}, logins={machine.get('logins')}")


if __name__ == "__main__":
    main()
