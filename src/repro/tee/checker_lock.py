"""The Damysus-C checker: trusted storage of prepared AND locked blocks.

Section 4.1: to increase resilience without an accumulator, "the
additional secure storage would need to persist both prepared and locked
blocks".  Damysus-C keeps HotStuff's 3-phase structure (prepare,
pre-commit, commit, plus the decide half-phase) with f+1 quorums of 2f+1
replicas; its checker therefore cycles through four steps per view and
evaluates the SafeNode predicate *inside* the TEE against the stored
locked block, so not even a Byzantine node can vote for a proposal that
conflicts with its lock.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.codec import HASH, I64, Kind
from repro.crypto.hashing import Hash
from repro.crypto.keys import KeyDirectory
from repro.crypto.scheme import SignatureScheme
from repro.errors import TEERefusal
from repro.core.commitment import Commitment
from repro.core.phases import Phase, StepRule
from repro.tee.checker import Checker


class LockingChecker(Checker):
    """Checker with locked-block storage and in-TEE SafeNode (Damysus-C)."""

    step_rule = StepRule.THREE_PHASE

    # The lock is protected state too: a restart must not forget it, or
    # the host could vote for a conflicting branch after recovery.
    SEALED: ClassVar[dict[str, Kind]] = {"_lockv": I64, "_lockh": HASH}

    def __init__(
        self,
        replica: int,
        scheme: SignatureScheme,
        directory: KeyDirectory,
        genesis_hash: Hash,
        quorum: int,
    ) -> None:
        super().__init__(replica, scheme, directory, genesis_hash, quorum)
        self._lockv = 0
        self._lockh = genesis_hash

    @property
    def locked_view(self) -> int:
        return self._lockv

    @property
    def locked_hash(self) -> Hash:
        return self._lockh

    def storage_bytes(self) -> int:
        """Constant, but larger than Damysus's checker: Section 4.2.3 notes
        that the accumulator removes the need to store locked blocks."""
        return super().storage_bytes() + 4 + 32  # lockv + lockh

    # -- TEE interface ----------------------------------------------------------

    def tee_prepare_locked(self, h: Hash, justify: Commitment) -> Commitment:
        """Prepare vote for ``h``, gated by SafeNode against the stored lock.

        ``justify`` is the highest new-view commitment the leader selected:
        a TEE-signed 1-commitment for the current view whose justification
        fields name the proposing node's latest prepared block.  SafeNode
        (Section 3): accept if the justification equals the locked block,
        or was prepared at a view higher than the lock's.
        """
        self._count_call()
        if h is None:
            raise TEERefusal("TEEprepareLocked: proposed hash is bottom")
        if not self._verify_commitment(justify, expected_sigs=1):
            raise TEERefusal("TEEprepareLocked: invalid justification commitment")
        if justify.phase != Phase.NEW_VIEW or justify.h_prep is not None:
            raise TEERefusal("TEEprepareLocked: justification is not a new-view commitment")
        if justify.v_prep != self._step.view:
            raise TEERefusal(
                f"TEEprepareLocked: justification for view {justify.v_prep}, "
                f"checker at view {self._step.view}"
            )
        if justify.v_just is None or justify.h_just is None:
            raise TEERefusal("TEEprepareLocked: justification lacks a prepared block")
        safe_by_lock = justify.h_just == self._lockh
        live_by_view = justify.v_just > self._lockv
        if not (safe_by_lock or live_by_view):
            raise TEERefusal(
                "TEEprepareLocked: SafeNode rejected the proposal "
                f"(justified at view {justify.v_just}, locked at {self._lockv})"
            )
        return self._create_unique_sign(h, justify.h_just, justify.v_just)

    def tee_store(self, phi: Commitment) -> Commitment:
        """Store a prepared block (prepare quorum) or lock it (pre-commit).

        * an (f+1)-commitment from the prepare phase stores the prepared
          block and emits a pre-commit vote;
        * an (f+1)-commitment from the pre-commit phase locks the block and
          emits a commit vote.
        """
        self._count_call()
        if not self._verify_commitment(phi, expected_sigs=self.quorum):
            raise TEERefusal("TEEstore: invalid quorum commitment")
        if phi.h_prep is None:
            raise TEERefusal("TEEstore: nothing to store")
        if self._step.view != phi.v_prep:
            raise TEERefusal("TEEstore: commitment not for the current view")
        if phi.phase == Phase.PREPARE:
            self._preph = phi.h_prep
            self._prepv = phi.v_prep
            return self._create_unique_sign(phi.h_prep, None, None)
        if phi.phase == Phase.PRECOMMIT:
            self._lockh = phi.h_prep
            self._lockv = phi.v_prep
            return self._create_unique_sign(phi.h_prep, None, None)
        raise TEERefusal(f"TEEstore: unexpected phase {phi.phase}")
