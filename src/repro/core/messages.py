"""Wire messages exchanged by replicas, with byte-size accounting.

Each message type computes its on-wire size from its components (32 B
hashes, 64 B signatures, 4 B views...).  The network charges transfer time
from these sizes, so the 2f+1-vs-3f+1 quorum-certificate size difference
between protocol families shows up in latency exactly as it does on a real
link.  ``msg_type`` labels feed the monitor's per-type counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from repro.crypto.hashing import HASH_SIZE, Hash
from repro.crypto.scheme import SIGNATURE_WIRE_SIZE, Signature
from repro.core.block import Block
from repro.core.certificate import Accumulator, QuorumCert
from repro.core.commitment import Commitment
from repro.core.mempool import AdmissionVerdict, Transaction
from repro.core.phases import Phase

#: Fixed framing bytes per message (type tag, length, sender).
MSG_HEADER_BYTES = 12


@dataclass(frozen=True, slots=True)
class NewViewMsg:
    """HotStuff new-view: a replica's latest prepare QC (Section 3)."""

    view: int
    justify: QuorumCert

    msg_type = "new-view"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4 + self.justify.wire_size()


@dataclass(frozen=True, slots=True)
class NewViewAMsg:
    """Damysus-A new-view: latest prepare QC, signed by the sender.

    The sender signature is what the leader's Accumulator deduplicates
    reporters by; the QC itself proves the claimed prepared block exists.
    """

    view: int
    justify: QuorumCert
    sender_sig: Signature

    msg_type = "new-view-a"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4 + self.justify.wire_size() + SIGNATURE_WIRE_SIZE


@dataclass(frozen=True, slots=True)
class ProposalMsg:
    """HotStuff prepare proposal: new block plus its justifying high QC."""

    view: int
    block: Block
    justify: QuorumCert

    msg_type = "proposal"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4 + self.block.wire_size() + self.justify.wire_size()


@dataclass(frozen=True, slots=True)
class VoteMsg:
    """HotStuff-style partial vote for (view, phase, block)."""

    view: int
    phase: Phase
    block_hash: Hash
    sig: Signature

    msg_type = "vote"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4 + 1 + HASH_SIZE + SIGNATURE_WIRE_SIZE


@dataclass(frozen=True, slots=True)
class QCMsg:
    """Leader broadcast of an assembled quorum certificate."""

    view: int
    phase: Phase
    qc: QuorumCert

    msg_type = "qc"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4 + 1 + self.qc.wire_size()


@dataclass(frozen=True, slots=True)
class CommitmentMsg:
    """A (new-view / vote / combined) Checker commitment on the wire.

    ``kind`` distinguishes the roles for per-type accounting: Damysus uses
    the same commitment structure for new-view messages, prepare votes,
    pre-commit votes and the combined certificates the leader broadcasts.
    """

    commitment: Commitment
    kind: str

    @property
    def msg_type(self) -> str:
        return self.kind

    @property
    def view(self) -> int:
        return self.commitment.v_prep

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + self.commitment.wire_size()


@dataclass(frozen=True, slots=True)
class BlockProposal:
    """Damysus prepare message ``<b, acc, sigma>`` (Fig 2a, line 10).

    ``leader_sig`` is the signature of the leader's TEE prepare commitment,
    from which backups reconstruct and verify the commitment (line 15).
    ``acc`` is ``None`` in Damysus-C, where proposals are justified by the
    highest new-view commitment instead (``justify_commitment``).
    """

    view: int
    block: Block
    acc: Accumulator | None
    leader_sig: Signature
    justify_commitment: Commitment | None = None

    msg_type = "block-proposal"

    def wire_size(self) -> int:
        size = MSG_HEADER_BYTES + 4 + self.block.wire_size() + SIGNATURE_WIRE_SIZE
        if self.acc is not None:
            size += self.acc.wire_size()
        if self.justify_commitment is not None:
            size += self.justify_commitment.wire_size()
        return size


@dataclass(frozen=True, slots=True)
class ProposalAMsg:
    """Damysus-A prepare message: block + finalized accumulator + leader sig."""

    view: int
    block: Block
    acc: Accumulator
    leader_sig: Signature

    msg_type = "proposal-a"

    def wire_size(self) -> int:
        return (
            MSG_HEADER_BYTES
            + 4
            + self.block.wire_size()
            + self.acc.wire_size()
            + SIGNATURE_WIRE_SIZE
        )


@dataclass(frozen=True, slots=True)
class ChainedProposal:
    """Chained proposal ``<b, sigma'>`` (Fig 5a, line 18/22).

    The block embeds its justification (``b.just``); the signature is the
    proposing leader's TEE prepare commitment signature, doubling as the
    leader's own vote.
    """

    view: int
    block: Block
    leader_sig: Signature

    msg_type = "chained-proposal"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4 + self.block.wire_size() + SIGNATURE_WIRE_SIZE


@dataclass(frozen=True, slots=True)
class ViewAnnounce:
    """A restarted replica telling every peer which view it came back in.

    Unauthenticated and handled by no protocol: it is traffic stamped
    with the sender's view, which is all the chassis' re-synchronisation
    rule needs - a peer two or more views ahead answers it by re-sending
    the last new-view message it sent.
    """

    view: int

    msg_type = "view-announce"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 4


@dataclass(frozen=True, slots=True)
class BlockRequest:
    """Block-synchronization fetch: ask a peer for a block body by hash.

    Needed because a Byzantine leader can commit a block without sending
    its body to every replica; the decide certificate names only the hash.
    """

    block_hash: Hash

    msg_type = "block-request"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + HASH_SIZE


@dataclass(frozen=True, slots=True)
class BlockResponse:
    """Block-synchronization reply carrying the requested block body."""

    block: Block

    msg_type = "block-response"

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + self.block.wire_size()


class _ClientRequestRow(NamedTuple):
    client_id: int
    tx: Transaction


class ClientRequest(_ClientRequestRow):
    """A client transaction submission.

    This and :class:`ClientReply` are tuple records like
    :class:`~repro.core.mempool.Transaction`: they travel once per
    transaction, where every other message travels once per block.  Each
    is a ``NamedTuple`` row plus the class constants a host labels a
    message by (a ``NamedTuple`` body holds fields only), so reading
    ``msg_type`` or ``view`` runs no Python call.
    """

    __slots__ = ()
    msg_type: ClassVar[str] = "client-request"
    view: ClassVar[None] = None

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + self.tx.wire_size()


class _ClientReplyRow(NamedTuple):
    replica: int
    client_id: int
    tx_id: int
    executed_at: float
    verdict: AdmissionVerdict = AdmissionVerdict.ACCEPTED


class ClientReply(_ClientReplyRow):
    """A replica's reply to a client transaction.

    Carries the admission verdict: ``ACCEPTED`` replies are sent at
    execution time (``executed_at`` is the commit timestamp); any other
    verdict is an immediate NACK from the admission pipeline, stamped
    with the rejection time.
    """

    __slots__ = ()
    msg_type: ClassVar[str] = "client-reply"
    view: ClassVar[None] = None

    def wire_size(self) -> int:
        return MSG_HEADER_BYTES + 13
