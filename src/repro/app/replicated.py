"""Driving state machines from the replicated log.

State machine replication is a pure function of the executed block
sequence: commands are injected as transactions, consensus orders them,
and each replica's machine replays its ledger.  Because machines are
deterministic, replicas that executed the same blocks reach bit-identical
state digests - the application-level restatement of consensus safety,
which :meth:`ReplicatedApp.verify_convergence` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.app.kvstore import KVCommand, KVResult, KVStateMachine
from repro.core.mempool import Transaction
from repro.errors import ProtocolError
from repro.protocols.replica import BaseReplica
from repro.runtime.sim import ConsensusSystem


class StateMachine(Protocol):
    """Anything that applies commands deterministically."""

    def apply(self, command: KVCommand) -> KVResult: ...

    def digest(self) -> bytes: ...


@dataclass
class ReplicatedApp:
    """A command log injected into a consensus system."""

    system: ConsensusSystem
    commands: dict[int, KVCommand] = field(default_factory=dict)
    machine_factory: Callable[[], StateMachine] = KVStateMachine

    def submit(self, command: KVCommand, replica: int = 0) -> None:
        """Queue a command at one replica (it proposes it when that replica
        leads a view)."""
        self.system.replicas[replica].submit(self._transaction(command))

    def submit_everywhere(self, command: KVCommand) -> None:
        """Queue a command at every replica (clients broadcast requests)."""
        tx = self._transaction(command)
        for replica in self.system.replicas:
            replica.submit(tx)

    def _transaction(self, command: KVCommand) -> Transaction:
        tx_id = command.encode()
        self.commands[tx_id] = command
        return Transaction(
            client_id=-2,  # app-injected marker
            tx_id=tx_id,
            payload_bytes=command.payload_size(),
            submitted_at=self.system.sim.now,
        )

    # -- replay --------------------------------------------------------------------

    def replay(self, replica: BaseReplica) -> tuple[StateMachine, list[KVResult]]:
        """Apply the replica's executed command log to a fresh machine."""
        machine = self.machine_factory()
        results: list[KVResult] = []
        ledger = replica.ledger
        for block in ledger.executed:
            # A command queued at several replicas may be carried twice;
            # the ledger applied it once, and so does the machine.
            for tx in ledger.applied_transactions(block):
                command = self.commands.get(tx.tx_id)
                if command is None:
                    continue  # synthetic filler transaction
                results.append(machine.apply(command))
        return machine, results

    def verify_convergence(self) -> bytes:
        """All replicas with equally long logs must reach the same digest.

        Returns the digest of the longest log's machine.  Raises
        :class:`ProtocolError` on divergence (which consensus safety
        makes impossible).

        A replica that installed a certified checkpoint cannot replay
        the commands below its horizon; its state is instead vouched for
        by the certified state root, which must equal the fold a
        full-log replica computes at the same height.
        """
        digests: dict[int, list[bytes]] = {}
        best: tuple[int, bytes] | None = None
        full_log = [r for r in self.system.replicas if r.ledger.base_height == 0]
        for replica in full_log:
            machine, results = self.replay(replica)
            applied = len(results)
            digests.setdefault(applied, []).append(machine.digest())
            if best is None or applied > best[0]:
                best = (applied, machine.digest())
        for applied, values in digests.items():
            if len(set(values)) != 1:
                raise ProtocolError(
                    f"state divergence at {applied} applied commands"
                )
        reference = full_log or [
            max(self.system.replicas, key=lambda r: r.ledger.height())
        ]
        for replica in self.system.replicas:
            if replica.ledger.base_height == 0:
                continue
            height = replica.ledger.height()
            expected = next(
                (
                    root
                    for other in reference
                    if other is not replica
                    and (root := other.ledger.state_root_at(height)) is not None
                ),
                None,
            )
            if expected is not None and expected != replica.ledger.state_root:
                raise ProtocolError(
                    f"checkpointed replica {replica.pid} state root diverges "
                    f"at height {height}"
                )
        if best is None:
            # Every replica compacted its log below the checkpoint
            # horizon: the certified roots (cross-checked above) are the
            # only digest left to return.
            return reference[0].ledger.state_root
        return best[1]


def attach_state_machines(system: ConsensusSystem) -> ReplicatedApp:
    """Create a :class:`ReplicatedApp` bound to ``system``."""
    return ReplicatedApp(system=system)
