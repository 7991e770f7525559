"""The Checker trusted service (paper Fig 2b, Section 4.2.1).

The checker keeps (1) a monotonically increasing step counter - split into
a view and a phase for convenience - and (2) the view and hash of the
latest *prepared* block.  Every certificate it emits is a 1-commitment
stamped with the current step, after which the step is incremented, so a
node can never obtain two certificates for the same step (no
equivocation), and can never report anything but its true latest prepared
block (no lying in new-view messages).

:class:`Checker` implements the basic (Damysus) interface; the chained
variant :class:`ChainedChecker` replaces ``TEEprepare`` per Fig 5b and
follows the chained step cycle.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.codec import HASH, I64, Kind
from repro.crypto.hashing import Hash
from repro.crypto.keys import KeyDirectory
from repro.crypto.scheme import SignatureScheme
from repro.errors import TEERefusal
from repro.core.block import Block
from repro.core.certificate import Accumulator, QuorumCert
from repro.core.commitment import Commitment, commitment_payload
from repro.core.executor import fold_state_root
from repro.core.phases import Phase, Step, StepRule, initial_step
from repro.tee.base import TrustedComponent
from repro.tee.checkpoint import Checkpoint, checkpoint_payload, verify_checkpoint


class Checker(TrustedComponent):
    """Damysus's checker instance (Fig 2b)."""

    step_rule = StepRule.BASIC

    #: Protected state a sealed snapshot carries, with its wire kinds
    #: (:mod:`repro.tee.sealed`); a subclass declares only what it adds.
    SEALED: ClassVar[dict[str, Kind]] = {
        "_prepv": I64,
        "_preph": HASH,
        "_step": Step,
        "_ckpt_counter": I64,
        "_ckpt_height": I64,
        "_ckpt_hash": HASH,
        "_ckpt_root": HASH,
    }

    def __init__(
        self,
        replica: int,
        scheme: SignatureScheme,
        directory: KeyDirectory,
        genesis_hash: Hash,
        quorum: int,
    ) -> None:
        super().__init__(replica, scheme, directory)
        self._prepv = 0
        self._preph = genesis_hash
        self._step = initial_step(self.step_rule)
        self._ckpt_counter = 0
        self._ckpt_height = 0
        # Certified executed-chain tip: the hash of the last checkpointed
        # block and the state root folded *inside* the TEE up to it.  A
        # checkpoint's height and root are derived from these, never taken
        # from the host.
        self._ckpt_hash = genesis_hash
        self._ckpt_root = genesis_hash
        self.quorum = quorum

    # -- read-only views for the host (duplicated outside the TEE, Fig 2a) ---

    @property
    def step(self) -> Step:
        """Current (view, phase) step; hosts may read but never write it."""
        return self._step

    @property
    def prepared_view(self) -> int:
        return self._prepv

    @property
    def prepared_hash(self) -> Hash:
        return self._preph

    @property
    def checkpoint_counter(self) -> int:
        """Monotonic count of checkpoints this component has certified."""
        return self._ckpt_counter

    @property
    def checkpoint_height(self) -> int:
        """Highest executed-chain height this component has certified."""
        return self._ckpt_height

    @property
    def checkpoint_hash(self) -> Hash:
        """Hash of the last certified checkpoint block (genesis initially)."""
        return self._ckpt_hash

    @property
    def checkpoint_root(self) -> Hash:
        """TEE-folded state root at the last certified height."""
        return self._ckpt_root

    def storage_bytes(self) -> int:
        """Constant: a step counter plus one (view, hash) pair (Section 2:
        "arguably requires minimal storage")."""
        # view+phase+prepv+preph plus the checkpoint counter, height, and
        # certified (tip hash, state root) pair
        return super().storage_bytes() + 4 + 1 + 4 + 32 + 8 + 8 + 32 + 32

    # -- internals ------------------------------------------------------------

    def _create_unique_sign(
        self, h_prep: Hash | None, h_just: Hash | None, v_just: int | None
    ) -> Commitment:
        """Fig 2b ``createUniqueSign``: stamp with the step, then advance it."""
        payload = commitment_payload(
            h_prep, self._step.view, h_just, v_just, self._step.phase
        )
        sig = self._sign(payload)
        phi = Commitment(
            h_prep=h_prep,
            v_prep=self._step.view,
            h_just=h_just,
            v_just=v_just,
            phase=self._step.phase,
            sigs=(sig,),
        )
        self._step = self._step.increment(self.step_rule)
        return phi

    def _verify_commitment(self, phi: Commitment, expected_sigs: int) -> bool:
        """Signatures must verify, be distinct, and all come from TEEs."""
        if len(phi.sigs) != expected_sigs:
            return False
        if any(self._directory.kind_of(sig.signer) != "tee" for sig in phi.sigs):
            return False
        return phi.verify(self._scheme)

    def _verify_accumulator(self, acc: Accumulator) -> bool:
        if not acc.finalized or len(acc) != self.quorum:
            return False
        if self._directory.kind_of(acc.signature.signer) != "tee":
            return False
        return acc.verify(self._scheme)

    # -- TEE interface (Fig 2b) ------------------------------------------------

    def tee_sign(self) -> Commitment:
        """``TEEsign()``: certificate for the stored latest prepared block.

        The proposed hash is bottom so the commitment can only ever be used
        as a new-view-phase commitment (Section 6.3).
        """
        self._count_call()
        return self._create_unique_sign(None, self._preph, self._prepv)

    def tee_prepare(self, h: Hash, acc: Accumulator) -> Commitment:
        """``TEEprepare(h, acc)``: partially signed prepare vote for ``h``.

        Accepts only an accumulator generated for the checker's current
        view, guaranteeing a single valid proposal per view.
        """
        self._count_call()
        if h is None:
            raise TEERefusal("TEEprepare: proposed hash is bottom")
        if not self._verify_accumulator(acc):
            raise TEERefusal("TEEprepare: invalid accumulator")
        if self._step.view != acc.made_in_view:
            raise TEERefusal(
                f"TEEprepare: accumulator view {acc.made_in_view} != "
                f"checker view {self._step.view}"
            )
        return self._create_unique_sign(h, acc.prep_hash, acc.prep_view)

    def tee_store(self, phi: Commitment) -> Commitment:
        """``TEEstore(phi)``: persist a prepared block; emit a pre-commit vote.

        ``phi`` must be an (f+1)-commitment for a block prepared in the
        checker's current view.  Storing inside the TEE is what forces
        nodes - even Byzantine ones - to relay the block in later
        new-view messages.
        """
        self._count_call()
        if not self._verify_commitment(phi, expected_sigs=self.quorum):
            raise TEERefusal("TEEstore: invalid quorum commitment")
        if self._step.view != phi.v_prep or phi.phase != Phase.PREPARE:
            raise TEERefusal("TEEstore: commitment not for the current prepare phase")
        if phi.h_prep is None:
            raise TEERefusal("TEEstore: nothing to store")
        self._preph = phi.h_prep
        self._prepv = phi.v_prep
        return self._create_unique_sign(phi.h_prep, None, None)

    def tee_checkpoint(
        self, headers: "tuple[tuple[Hash, Hash], ...]", qc: Commitment
    ) -> Checkpoint:
        """Certify an executed-chain checkpoint (state-transfer subsystem).

        ``headers`` is the ``(block_hash, parent_hash)`` sequence of every
        block executed since the last certified checkpoint, oldest first;
        ``qc`` must be the decide-phase quorum commitment for the final
        header.  The checker verifies the hash chain from its internally
        stored certified tip and re-verifies the commitment inside the
        TEE, then *derives* the new height and folds the state root
        itself - the certificate never attests host-asserted values, so a
        Byzantine host cannot splice a real decide QC onto a fabricated
        height or root.  The internal checkpoint counter and height are
        monotonic, so a host cannot re-issue fresh-looking certificates
        for stale state either.
        """
        self._count_call()
        if not headers:
            raise TEERefusal("TEEcheckpoint: no executed blocks to certify")
        tip = self._ckpt_hash
        root = self._ckpt_root
        for block_hash, parent_hash in headers:
            if parent_hash != tip:
                raise TEERefusal(
                    "TEEcheckpoint: headers do not chain from the certified tip"
                )
            root = fold_state_root(root, block_hash)
            tip = block_hash
        height = self._ckpt_height + len(headers)
        if qc.h_prep != tip or qc.phase != Phase.PRECOMMIT:
            raise TEERefusal("TEEcheckpoint: commitment does not decide the tip block")
        if not self._verify_commitment(qc, expected_sigs=self.quorum):
            raise TEERefusal("TEEcheckpoint: invalid quorum commitment")
        self._ckpt_counter += 1
        self._ckpt_height = height
        self._ckpt_hash = tip
        self._ckpt_root = root
        payload = checkpoint_payload(
            self.replica, self._ckpt_counter, height, qc.v_prep, tip, root, qc
        )
        return Checkpoint(
            replica=self.replica,
            counter=self._ckpt_counter,
            height=height,
            view=qc.v_prep,
            block_hash=tip,
            state_root=root,
            qc=qc,
            signature=self._sign(payload),
        )

    def tee_install_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Adopt another replica's certified checkpoint as the local tip.

        Run during state-transfer catch-up: the checkpoint is fully
        re-verified inside the TEE (certifying Checker signature plus the
        embedded decide commitment) and must move the certified height
        strictly forward, so neither a forged nor a stale checkpoint can
        rewind the monotonic certified state.  Afterwards the checker's
        own certifications chain from the installed tip.
        """
        self._count_call()
        if checkpoint.height <= self._ckpt_height:
            raise TEERefusal(
                f"TEEinstall: stale checkpoint height {checkpoint.height} "
                f"(already certified {self._ckpt_height})"
            )
        verify_checkpoint(checkpoint, self._scheme, self._directory, self.quorum)
        self._ckpt_height = checkpoint.height
        self._ckpt_hash = checkpoint.block_hash
        self._ckpt_root = checkpoint.state_root


class ChainedChecker(Checker):
    """Chained-Damysus checker (Fig 5b): same state, chained TEEprepare."""

    step_rule = StepRule.CHAINED

    def tee_prepare_chained(self, block: Block, b0: Block) -> Commitment:
        """``TEEprepare(b, b0)`` for the chained protocol (Fig 5b).

        ``b.just`` must be a valid f+1 certificate - a combined prepare
        commitment, an accumulator, or the genesis bottom certificate -
        created in the previous view and certifying ``b0``.  When ``b``
        directly extends ``b0``, the certified block becomes the latest
        prepared one.
        """
        self._count_call()
        qc = block.justify
        if qc is None:
            raise TEERefusal("chained TEEprepare: block has no justification")
        if not self._verify_chained_certificate(qc):
            raise TEERefusal("chained TEEprepare: invalid justification")
        if self._step.view != qc.cview + 1:
            raise TEERefusal(
                f"chained TEEprepare: certificate from view {qc.cview}, "
                f"checker at view {self._step.view}"
            )
        if qc.hash != b0.hash:
            raise TEERefusal("chained TEEprepare: justification does not certify b0")
        if block.parent == b0.hash:
            self._preph = qc.hash
            self._prepv = qc.view
        return self._create_unique_sign(block.hash, None, None)

    def _verify_chained_certificate(
        self, qc: "Commitment | Accumulator | QuorumCert"
    ) -> bool:
        if isinstance(qc, QuorumCert):
            # Only the genesis bottom certificate takes this shape in
            # Chained-Damysus; real certificates are commitments.
            return qc.is_genesis
        if isinstance(qc, Accumulator):
            return self._verify_accumulator(qc)
        if isinstance(qc, Commitment):
            if qc.phase != Phase.PREPARE or qc.h_prep is None:
                return False
            return self._verify_commitment(qc, expected_sigs=self.quorum)
        return False
