"""Byzantine sync server: forged checkpoints and suffixes for rejoiners.

The catch-up protocol is a juicy target: a replica that was down asks a
peer for history it cannot check against its own chain, so a Byzantine
server gets to answer with whatever it likes.  This adversary answers
every :class:`~repro.protocols.sync.SyncRequest` with

* a *forged checkpoint* - either its own latest certified checkpoint
  with the state root and height tampered (so the Checker signature no
  longer covers the payload), or a fully fabricated one signed with the
  host's untrusted key when it holds no checkpoint yet; and
* a *forged block suffix* claiming to extend the requester's tip,
  carrying a fabricated block and a junk tip commitment.

Both layers of the receiver's verification refuse it: the checkpoint
fails ``verify_checkpoint`` (Checker signature + embedded decide QC),
and the suffix fails parent-hash chaining / decide-QC verification, so
the rejoiner drops the reply, rotates to another peer, and catches up
from an honest one.  The attack costs the victim one retry timeout per
hit - never safety.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.block import create_leaf
from repro.core.commitment import Commitment
from repro.core.phases import Phase
from repro.adversary.behaviors import Behaviour
from repro.crypto.hashing import hash_fields
from repro.protocols.replica import BaseReplica
from repro.protocols.sync import StateTransfer, SyncBlocks, SyncCheckpoint, SyncRequest
from repro.tee.checkpoint import Checkpoint

#: A plausible-looking but wrong state root / parent hash.
_FORGED_ROOT = hash_fields(("forged-state-root",))


class ForgingSyncServer(StateTransfer):
    """Serve forged state-transfer replies instead of honest ones."""

    WIRING = ("forged_checkpoints_sent", "forged_suffixes_sent")
    forged_checkpoints_sent = forged_suffixes_sent = 0

    def forge_checkpoint(self) -> Checkpoint:
        """A checkpoint whose certification does not cover its claims."""
        replica = self.replica
        base = replica.latest_checkpoint
        if base is not None:
            # Authentic Checker signature, tampered payload: the height
            # is inflated and the state root replaced, so verification
            # of the signature over the *claimed* payload must fail.
            return replace(
                base, height=base.height + 7, state_root=_FORGED_ROOT
            )
        # No checkpoint of our own yet: fabricate one end-to-end.  The
        # host key is not a TEE key, so the Checker-signature check
        # fails before the junk QC is even looked at.
        junk_sig = replica.scheme.sign(replica.pid, b"forged-checkpoint")
        junk_qc = Commitment(
            h_prep=_FORGED_ROOT,
            v_prep=9,
            h_just=_FORGED_ROOT,
            v_just=8,
            phase=Phase.PRECOMMIT,
            sigs=(junk_sig,),
        )
        return Checkpoint(
            replica=replica.pid,
            counter=1,
            height=7,
            view=9,
            block_hash=_FORGED_ROOT,
            state_root=_FORGED_ROOT,
            qc=junk_qc,
            signature=junk_sig,
        )

    def forge_suffix(self, have_height: int) -> SyncBlocks:
        """A suffix of fabricated blocks 'extending' the requester's tip."""
        junk_block = create_leaf(_FORGED_ROOT, 10_000, ())
        junk_sig = self.replica.scheme.sign(self.replica.pid, b"forged-suffix")
        junk_qc = Commitment(
            h_prep=junk_block.hash,
            v_prep=10_000,
            h_just=_FORGED_ROOT,
            v_just=9_999,
            phase=Phase.PRECOMMIT,
            sigs=(junk_sig,),
        )
        return SyncBlocks(have_height, (junk_block,), done=True, tip_qc=junk_qc)

    def _handle_sync_request(self, sender: int, msg: SyncRequest) -> None:
        if sender == self.replica.pid:
            return
        self.forged_checkpoints_sent += 1
        self.replica.send(sender, SyncCheckpoint(self.forge_checkpoint()))
        self.forged_suffixes_sent += 1
        self.replica.send(sender, self.forge_suffix(msg.have_height))


class ByzantineSyncServer(Behaviour):
    """A replica serving forged state transfers: the chassis with the
    forging server in place of the honest one."""

    COMPONENTS = {**BaseReplica.COMPONENTS, "catchup": ForgingSyncServer}
