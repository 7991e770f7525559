"""Quorum certificates and accumulators (paper Sections 6.2 and 7.1).

Both kinds of certificate can justify a chained block (``b.just``), so
they share the ``cview`` / ``view`` / ``hash`` accessor vocabulary defined
in Section 7.1:

* for a quorum certificate ``<v, h, sigs>``: ``cview = view = v``;
* for an accumulator ``<view, v, h, n, sig>``: ``cview`` is the view the
  accumulator was created in, ``view`` the view at which ``hash`` was
  certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import HASH_SIZE, Hash, encode_fields, sha256
from repro.crypto.scheme import SIGNATURE_WIRE_SIZE, Signature, SignatureScheme
from repro.core.phases import Phase
from repro.memo import remember


@dataclass(frozen=True, slots=True)
class QuorumCert:
    """A set of partial signatures certifying a block at (view, phase)."""

    view: int
    block_hash: Hash
    phase: Phase
    sigs: tuple[Signature, ...]
    is_genesis: bool = False
    _digest: Hash = field(default=b"", init=False, repr=False, compare=False)

    # -- certificate vocabulary (Section 7.1) -------------------------------

    @property
    def cview(self) -> int:
        """View in which the certificate was created."""
        return self.view

    @property
    def hash(self) -> Hash:
        return self.block_hash

    def __len__(self) -> int:
        """Paper's ``|qc|``: the number of contributing signers."""
        return len(self.sigs)

    # -- signing -------------------------------------------------------------

    def signed_payload(self) -> bytes:
        """Bytes each contributing vote signed."""
        return vote_payload(self.view, self.phase, self.block_hash)

    def verify(self, scheme: SignatureScheme, quorum: int) -> bool:
        """Check quorum size, signer distinctness and every signature.

        The genesis certificate (paper's bottom certificate for view 0) is
        valid by fiat: it is a well-known constant, not a signed object.
        """
        if self.is_genesis:
            return True
        if len(self.sigs) != quorum:
            return False
        return scheme.verify_all(self.signed_payload(), self.sigs)

    def digest(self) -> Hash:
        """Digest for embedding the certificate in a block hash.

        Computed once per (immutable) certificate object and cached;
        certificates are digested whenever a block embedding them is
        hashed or re-hashed.
        """
        if self._digest:
            return self._digest
        digest = sha256(
            encode_fields(
                (
                    "qc",
                    self.view,
                    self.phase.value,
                    self.block_hash,
                    self.is_genesis,
                    tuple(sig.data for sig in self.sigs),
                )
            )
        )
        object.__setattr__(self, "_digest", digest)
        return digest

    def wire_size(self) -> int:
        return 4 + 1 + HASH_SIZE + 4 + SIGNATURE_WIRE_SIZE * len(self.sigs)


#: Memoized vote payloads.  Every vote, QC assembly and QC verification
#: for the same (view, phase, block) re-encodes the same canonical bytes;
#: the encoding is a pure function of the key, so memoization is
#: invisible to results.
_VOTE_PAYLOAD_CACHE: dict[tuple[int, str, Hash], bytes] = {}
_VOTE_PAYLOAD_CACHE_MAX = 65536


def vote_payload(view: int, phase: Phase, block_hash: Hash) -> bytes:
    """Canonical bytes a replica signs when voting in HotStuff-style phases."""
    key = (view, phase.value, block_hash)
    payload = _VOTE_PAYLOAD_CACHE.get(key)
    if payload is None:
        payload = remember(
            _VOTE_PAYLOAD_CACHE,
            key,
            encode_fields(("vote", view, phase.value, block_hash)),
            _VOTE_PAYLOAD_CACHE_MAX,
        )
    return payload


#: Memoized accumulator payloads, like the vote payloads above.  An
#: accumulator is verified in the view it was made for: a small cap will do.
_ACC_PAYLOAD_CACHE: dict[tuple[object, ...], bytes] = {}
_ACC_PAYLOAD_CACHE_MAX = 1024


def genesis_qc(genesis_hash: Hash) -> QuorumCert:
    """The special bottom certificate for view 0 (Section 7.1)."""
    return QuorumCert(
        view=0,
        block_hash=genesis_hash,
        phase=Phase.PREPARE,
        sigs=(),
        is_genesis=True,
    )


@dataclass(frozen=True, slots=True)
class Accumulator:
    """Certificate that ``prep_hash`` is the highest prepared block.

    Two forms exist (Section 6.2): the working form carries the list of
    contributing node ids; ``TEEfinalize`` replaces the list by its length
    (the ``count`` field), which is the form that travels in proposals.
    """

    made_in_view: int  # the view the accumulator certifies a selection for
    prep_view: int  # view at which prep_hash was prepared
    prep_hash: Hash
    signature: Signature
    ids: tuple[int, ...] | None = None  # working form
    count: int | None = None  # finalized form
    _digest: Hash = field(default=b"", init=False, repr=False, compare=False)

    # -- certificate vocabulary ----------------------------------------------

    @property
    def cview(self) -> int:
        return self.made_in_view

    @property
    def view(self) -> int:
        return self.prep_view

    @property
    def hash(self) -> Hash:
        return self.prep_hash

    @property
    def finalized(self) -> bool:
        return self.count is not None

    def __len__(self) -> int:
        """Paper's ``|acc|``: number of contributing commitments."""
        if self.count is not None:
            return self.count
        return len(self.ids or ())

    # -- signing -------------------------------------------------------------

    def signed_payload(self) -> bytes:
        """Bytes the accumulator TEE signed (depends on the form); encoded
        once per field tuple, however many replicas verify it."""
        form = ("acc-final", self.count) if self.finalized else ("acc", tuple(self.ids or ()))
        key = (form[0], self.made_in_view, self.prep_view, self.prep_hash, form[1])
        payload = _ACC_PAYLOAD_CACHE.get(key)
        if payload is None:
            payload = remember(_ACC_PAYLOAD_CACHE, key, encode_fields(key), _ACC_PAYLOAD_CACHE_MAX)
        return payload

    def verify(self, scheme: SignatureScheme) -> bool:
        """Check the accumulator TEE's signature over the current form."""
        return scheme.verify_cached(self.signed_payload(), self.signature)

    def digest(self) -> Hash:
        if self._digest:
            return self._digest
        digest = sha256(
            encode_fields(
                (
                    "acc-digest",
                    self.made_in_view,
                    self.prep_view,
                    self.prep_hash,
                    self.count if self.finalized else tuple(self.ids or ()),
                    self.signature.data,
                )
            )
        )
        object.__setattr__(self, "_digest", digest)
        return digest

    def wire_size(self) -> int:
        ids_bytes = 4 if self.finalized else 4 * len(self.ids or ())
        return 4 + 4 + HASH_SIZE + ids_bytes + SIGNATURE_WIRE_SIZE
