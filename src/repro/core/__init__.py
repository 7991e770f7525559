"""Core consensus data types shared by all six protocols.

This package contains the paper's vocabulary as code: blocks and the
extension relation (Section 5), phases and steps (Section 6.2),
commitments with ``C-combine``/``C-match`` (Section 6.2), quorum
certificates and accumulators (Sections 6.2/7.1), the wire messages with
byte-accurate size accounting, and the execution ledger with a global
safety oracle used by tests and the Section 4 counter-example.
"""

from repro.core.block import GENESIS_PAYLOAD_DIGEST, Block, create_chain, create_leaf, genesis_block
from repro.core.certificate import Accumulator, QuorumCert, genesis_qc
from repro.core.chain import BlockStore
from repro.core.commitment import Commitment, c_combine, c_match
from repro.core.executor import Ledger, SafetyOracle
from repro.core.mempool import Transaction
from repro.core.messages import (
    BlockProposal,
    ChainedProposal,
    ClientReply,
    ClientRequest,
    CommitmentMsg,
    NewViewAMsg,
    NewViewMsg,
    ProposalAMsg,
    ProposalMsg,
    QCMsg,
    VoteMsg,
)
from repro.core.phases import Phase, Step, StepRule

__all__ = [
    "Phase",
    "Step",
    "StepRule",
    "Transaction",
    "Block",
    "genesis_block",
    "create_leaf",
    "create_chain",
    "GENESIS_PAYLOAD_DIGEST",
    "BlockStore",
    "Commitment",
    "c_combine",
    "c_match",
    "QuorumCert",
    "Accumulator",
    "genesis_qc",
    "Ledger",
    "SafetyOracle",
    "NewViewMsg",
    "NewViewAMsg",
    "ProposalMsg",
    "VoteMsg",
    "QCMsg",
    "BlockProposal",
    "ProposalAMsg",
    "ChainedProposal",
    "CommitmentMsg",
    "ClientRequest",
    "ClientReply",
]
