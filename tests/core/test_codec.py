"""Round-trip tests for the wire codec."""

import pytest

from repro.crypto.scheme import Signature
from repro.core.block import Block, create_chain, create_leaf, genesis_block
from repro.core.certificate import Accumulator, QuorumCert, genesis_qc
from repro.core.codec import (
    BYTES,
    F64,
    HASH,
    I64,
    STR,
    U8,
    U32,
    ClientReplies,
    ClientRequests,
    CodecError,
    Opt,
    decode_fields,
    decode_message,
    decode_record,
    encode_fields,
    encode_message,
    encode_record,
)
from repro.core.commitment import Commitment
from repro.core.mempool import AdmissionVerdict, Transaction
from repro.core.messages import (
    BlockProposal,
    BlockRequest,
    BlockResponse,
    ChainedProposal,
    ClientReply,
    ClientRequest,
    CommitmentMsg,
    NewViewAMsg,
    NewViewMsg,
    ProposalAMsg,
    ProposalMsg,
    QCMsg,
    ViewAnnounce,
    VoteMsg,
)
from repro.core.phases import Phase, Step
from repro.protocols.chained_damysus import ChainedVote
from repro.protocols.fast_hotstuff import FastProposal
from repro.protocols.sync import SyncBlocks, SyncCheckpoint, SyncRequest
from repro.tee.checkpoint import Checkpoint
from repro.tee.sealed import DurableState, SealCounter, SealedState


def sig(signer=3):
    return Signature(signer, b"\xab" * 32, "hmac")


def tx(i=1, payload=16):
    return Transaction(client_id=2, tx_id=i, payload_bytes=payload, submitted_at=1.5)


def qc(view=4):
    return QuorumCert(view, b"\x01" * 32, Phase.PREPARE, (sig(0), sig(1), sig(2)))


def acc(finalized=True):
    if finalized:
        return Accumulator(5, 3, b"\x02" * 32, sig(9), count=3)
    return Accumulator(5, 3, b"\x02" * 32, sig(9), ids=(1000001, 1000002))


def commitment(h=b"\x03" * 32):
    return Commitment(h, 6, b"\x04" * 32, 5, Phase.PREPARE, (sig(7),))


def checkpoint():
    decide = Commitment(
        b"\x03" * 32, 44, b"\x04" * 32, 43, Phase.PRECOMMIT, (sig(7), sig(8))
    )
    return Checkpoint(
        replica=1,
        counter=3,
        height=40,
        view=44,
        block_hash=b"\x03" * 32,
        state_root=b"\x0a" * 32,
        qc=decide,
        signature=sig(1_000_001),
    )


def sealed_state():
    return SealedState(component_id=1_000_001, seal_counter=7, payload=b"\x05" * 40,
                       mac=b"\x06" * 32)


def durable_state(sealed=True):
    """A replica's durable record: its ``DURABLE`` fields (view, latest
    checkpoint, last committed view; a checker-less one adds its lock) and
    the sealed checker if it has one."""
    if sealed:
        payload = encode_fields((I64, Opt(Checkpoint), I64), (45, checkpoint(), 44))
        return DurableState(payload, sealed_state())
    payload = encode_fields((I64, Opt(Checkpoint), I64, QuorumCert), (9, None, 7, qc(8)))
    return DurableState(payload, None)


#: One of each durable record kind, in the order of their kind byte.
RECORDS = [
    sealed_state(), SealCounter(component_id=1_000_001, latest=7), checkpoint(), durable_state()
]

#: A Checker's sealed step.
STEP = Step(12, Phase.PRECOMMIT)


def block(justify=None):
    g = genesis_block()
    if justify is None:
        return create_leaf(g.hash, 2, (tx(1), tx(2)), created_at=3.25)
    return create_chain(justify, 2, (tx(1),), created_at=3.25)


ALL_MESSAGES = [
    NewViewMsg(4, qc()),
    NewViewMsg(0, genesis_qc(genesis_block().hash)),
    NewViewAMsg(4, qc(), sig()),
    ProposalMsg(2, block(), qc()),
    ProposalAMsg(2, block(), acc(), sig()),
    VoteMsg(3, Phase.PRECOMMIT, b"\x05" * 32, sig()),
    QCMsg(4, Phase.COMMIT, qc()),
    CommitmentMsg(commitment(), "damysus-prep-vote"),
    CommitmentMsg(Commitment(None, 2, b"\x06" * 32, 1, Phase.NEW_VIEW, (sig(),)), "damysus-new-view"),
    BlockProposal(2, block(), acc(), sig()),
    BlockProposal(2, block(), None, sig(), justify_commitment=commitment()),
    ChainedProposal(2, block(justify=qc(1)), sig()),
    ChainedProposal(2, block(justify=acc()), sig()),
    ChainedProposal(2, block(justify=commitment()), sig()),
    ChainedVote(3, commitment(), Commitment(None, 3, b"\x07" * 32, 2, Phase.NEW_VIEW, (sig(),))),
    ChainedVote(3, None, Commitment(None, 3, b"\x07" * 32, 2, Phase.NEW_VIEW, (sig(),))),
    FastProposal(2, block(), qc(1), proof=None),
    FastProposal(2, block(), qc(1), proof=(NewViewAMsg(2, qc(1), sig(0)), NewViewAMsg(2, qc(1), sig(1)))),
    BlockRequest(b"\x08" * 32),
    BlockResponse(block()),
    ClientRequest(2, tx()),
    ClientRequest(2, Transaction(2, 7, 16, submitted_at=1.5, fee=42)),
    ClientReply(0, 2, 9, 12.5),
    ClientReply(0, 2, 9, 12.5, AdmissionVerdict.POOL_FULL),
    ClientReply(1, 3, 10, 0.5, AdmissionVerdict.RATE_LIMITED),
    SyncRequest(40, 44),
    SyncCheckpoint(checkpoint()),
    SyncBlocks(40, (block(), block()), done=False),
    SyncBlocks(0, (), done=True),
    SyncBlocks(40, (block(),), done=True, tip_qc=commitment()),
    ViewAnnounce(107),
    ClientRequests.of([ClientRequest(2, tx()), ClientRequest(2, Transaction(2, 7, 0, 2.5, fee=3))]),
    ClientReplies.of([ClientReply(0, 2, 9, 12.5), ClientReply(1, 3, 10, 0.5, AdmissionVerdict.POOL_FULL)]),
]


def test_checkpoint_standalone_roundtrip():
    ckpt = checkpoint()
    assert decode_record(Checkpoint, encode_record(ckpt)) == ckpt
    assert decode_fields((Checkpoint,), encode_fields((Checkpoint,), (ckpt,))) == [ckpt]


def test_checkpoint_standalone_truncation_rejected():
    data = encode_record(checkpoint())
    with pytest.raises(CodecError):
        decode_record(Checkpoint, data[:-2])


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_roundtrip(msg):
    data = encode_message(msg)
    decoded = decode_message(data)
    assert decoded == msg


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_declared_wire_size_tracks_encoding(msg):
    """The accounting used by the benchmarks must be honest.

    The codec carries a few extra framing bytes per variable field, so
    declared and encoded sizes differ, but never wildly: within 35% or
    60 bytes, whichever is larger.
    """
    declared = msg.wire_size()
    encoded = len(encode_message(msg))
    assert abs(encoded - declared) <= max(60, declared * 0.35), (declared, encoded)


def test_unknown_admission_verdict_rejected():
    data = bytearray(encode_message(ClientReply(0, 2, 9, 12.5)))
    data[-1] = 0xFF  # the verdict tag is the reply's final byte
    with pytest.raises(CodecError, match="admission verdict"):
        decode_message(bytes(data))


def test_transaction_fee_survives_roundtrip():
    msg = ClientRequest(2, Transaction(2, 7, 16, submitted_at=1.5, fee=42))
    decoded = decode_message(encode_message(msg))
    assert decoded.tx.fee == 42


def test_block_hash_survives_roundtrip():
    msg = ProposalMsg(2, block(), qc())
    decoded = decode_message(encode_message(msg))
    assert decoded.block.hash == msg.block.hash


@pytest.mark.parametrize("justify", [None, qc(1), acc(), commitment()],
                         ids=["leaf", "qc", "acc", "commitment"])
def test_block_encoding_is_recomputed_not_remembered(justify):
    """Encoding a block twice, and encoding its decoded copy, give equal
    bytes, and encoding leaves nothing behind on the (immutable) block."""
    b = block(justify=justify)
    before = {name: getattr(b, name) for name in Block.__slots__}
    first = encode_message(BlockResponse(b))
    assert encode_message(BlockResponse(b)) == first
    assert {name: getattr(b, name) for name in Block.__slots__} == before
    copy = decode_message(first).block
    assert copy is not b and copy == b
    assert encode_message(BlockResponse(copy)) == first
    assert not any("codec" in name or "bytes" in name for name in Block.__slots__)


def test_chained_justify_kinds_roundtrip():
    for justify in (qc(1), acc(), commitment()):
        b = block(justify=justify)
        decoded = decode_message(encode_message(ChainedProposal(2, b, sig())))
        assert decoded.block.justify == justify
        assert decoded.block.hash == b.hash


def test_truncated_message_rejected():
    data = encode_message(ALL_MESSAGES[0])
    with pytest.raises(CodecError):
        decode_message(data[:-3])


def test_trailing_bytes_rejected():
    data = encode_message(ALL_MESSAGES[0])
    with pytest.raises(CodecError):
        decode_message(data + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(CodecError):
        decode_message(b"\xff\x00\x00")


def test_unknown_type_rejected():
    with pytest.raises(CodecError):
        encode_message(object())


def test_encoder_decoder_primitives():
    kinds = (U8, U32, I64, F64, BYTES, STR, Opt(I64), Opt(I64), HASH, Step)
    values = [7, 1234, -5, 2.5, b"xy", "hi", None, 42, b"\x01" * 32, STEP]
    data = encode_fields(kinds, values)
    assert decode_fields(kinds, data) == values
    with pytest.raises(CodecError, match="trailing"):
        decode_fields(kinds, data + b"\x00")
    with pytest.raises(CodecError):
        decode_fields(kinds, data[:-1])


def test_bad_hash_length_rejected():
    with pytest.raises(CodecError):
        encode_fields((HASH,), (b"short",))


def test_transaction_payload_bytes_materialized():
    """Encoded size grows with the declared payload size."""
    small = encode_message(ClientRequest(0, tx(payload=0)))
    large = encode_message(ClientRequest(0, tx(payload=256)))
    assert len(large) - len(small) == 256


def test_full_block_encoding_size_matches_paper_scale():
    """A 400 x 256B block encodes near the paper's 115.6 KiB figure."""
    g = genesis_block()
    big = create_leaf(g.hash, 1, tuple(tx(i, payload=256) for i in range(400)))
    encoded = encode_message(BlockResponse(big))
    assert abs(len(encoded) - big.wire_size()) / big.wire_size() < 0.12
