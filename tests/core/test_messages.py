"""Tests for wire messages and byte accounting."""

import pytest

from repro.core.codec import decode_fields, decode_message, encode_fields, encode_message
from repro.crypto.scheme import Signature
from repro.core.block import create_leaf, genesis_block
from repro.core.certificate import QuorumCert, genesis_qc
from repro.core.commitment import Commitment
from repro.core.mempool import TX_METADATA_BYTES, AdmissionVerdict, Transaction
from repro.core.messages import (
    MSG_HEADER_BYTES,
    BlockProposal,
    ChainedProposal,
    ClientReply,
    ClientRequest,
    CommitmentMsg,
    NewViewMsg,
    ProposalMsg,
    QCMsg,
    VoteMsg,
)
from repro.core.phases import Phase


def sig(signer=0):
    return Signature(signer, b"\x00" * 32, "hmac")


def block():
    g = genesis_block()
    return create_leaf(g.hash, 1, (Transaction(0, 1, 64),))


def test_all_messages_have_types_and_sizes():
    g = genesis_block()
    qc = genesis_qc(g.hash)
    phi = Commitment(None, 1, g.hash, 0, Phase.NEW_VIEW, (sig(),))
    messages = [
        NewViewMsg(1, qc),
        ProposalMsg(1, block(), qc),
        VoteMsg(1, Phase.PREPARE, g.hash, sig()),
        QCMsg(1, Phase.PREPARE, qc),
        CommitmentMsg(phi, "damysus-new-view"),
        BlockProposal(1, block(), None, sig(), justify_commitment=phi),
        ChainedProposal(1, block(), sig()),
        ClientRequest(0, Transaction(0, 1, 10)),
        ClientReply(0, 0, 1, 5.0),
    ]
    for msg in messages:
        assert isinstance(msg.msg_type, str) and msg.msg_type
        assert msg.wire_size() > 0


def test_commitment_msg_type_is_kind():
    phi = Commitment(None, 4, None, None, Phase.NEW_VIEW, (sig(),))
    msg = CommitmentMsg(phi, "damysus-prep-vote")
    assert msg.msg_type == "damysus-prep-vote"
    assert msg.view == 4


def test_proposal_size_dominated_by_block():
    g = genesis_block()
    qc = genesis_qc(g.hash)
    big_block = create_leaf(
        g.hash, 1, tuple(Transaction(0, i, 256) for i in range(400))
    )
    msg = ProposalMsg(1, big_block, qc)
    assert msg.wire_size() > 400 * 296


def test_vote_is_small_and_constant():
    v1 = VoteMsg(1, Phase.PREPARE, b"\x01" * 32, sig())
    v2 = VoteMsg(9, Phase.COMMIT, b"\x02" * 32, sig())
    assert v1.wire_size() == v2.wire_size() < 200


def test_qc_message_grows_with_quorum():

    h = b"\x03" * 32
    small = QuorumCert(1, h, Phase.PREPARE, (sig(0), sig(1)))
    large = QuorumCert(1, h, Phase.PREPARE, tuple(sig(i) for i in range(5)))
    assert QCMsg(1, Phase.PREPARE, large).wire_size() > QCMsg(
        1, Phase.PREPARE, small
    ).wire_size()


def test_client_messages_have_no_view():
    assert ClientRequest(0, Transaction(0, 1, 0)).view is None
    assert ClientReply(0, 0, 1, 0.0).view is None


def test_block_proposal_counts_optional_fields():
    phi = Commitment(None, 1, b"\x01" * 32, 0, Phase.NEW_VIEW, (sig(),))
    without = BlockProposal(1, block(), None, sig())
    with_j = BlockProposal(1, block(), None, sig(), justify_commitment=phi)
    assert with_j.wire_size() - without.wire_size() == phi.wire_size()


# -- the three tuple records ---------------------------------------------------

TX = Transaction(3, 11, 256, 5.0, 7)
RECORDS = (TX, ClientRequest(3, TX), ClientReply(1, 3, 11, 9.5, AdmissionVerdict.POOL_FULL))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        record.client_id = 99
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__ to grow one in


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_survive_the_wire_equal_and_with_equal_hashes(record):
    if isinstance(record, Transaction):
        (back,) = decode_fields((Transaction,), encode_fields((Transaction,), (record,)))
    else:
        back = decode_message(encode_message(record))
    assert type(back) is type(record)
    assert back == record and hash(back) == hash(record)
    assert back is not record


def test_record_labels_views_and_sizes_are_unchanged():
    request, reply = RECORDS[1], RECORDS[2]
    assert (request.msg_type, reply.msg_type) == ("client-request", "client-reply")
    assert request.view is None and reply.view is None
    assert request.wire_size() == MSG_HEADER_BYTES + 256 + TX_METADATA_BYTES
    assert reply.wire_size() == MSG_HEADER_BYTES + 13
    assert TX.wire_size() == 256 + TX_METADATA_BYTES
    # ``msg_type`` is a property, never a field: the wire row and the tuple
    # carry exactly the declared fields.
    assert ClientRequest._fields == ("client_id", "tx")
    assert ClientReply._fields == ("replica", "client_id", "tx_id", "executed_at", "verdict")


def test_record_hash_is_the_hash_of_its_fields():
    # What a frozen dataclass hashed, so set and dict order cannot move.
    assert hash(TX) == hash((3, 11, 256, 5.0, 7))
    assert {TX: 1}[Transaction(3, 11, 256, 5.0, 7)] == 1
