"""The pipelined vote engine (paper Section 7): chained HotStuff and
Chained-Damysus, the third engine beside signature and commitment votes.

Section 7 derives Chained-Damysus from basic Damysus as chained HotStuff
comes from HotStuff: one generic phase per view, each proposal serving as
the next phase of the blocks below it.  The two protocols differ in what
a vote and a certificate are and in how deep a chain executes (``DEPTH``);
the rest is held here once.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar

from repro.core.block import Block
from repro.core.certificate import Accumulator, QuorumCert, genesis_qc
from repro.core.messages import ChainedProposal
from repro.protocols.replica import BaseReplica

#: ``(block, certificate)``: a block and the justification certifying it.
Link = tuple[Block, QuorumCert | Accumulator]


class PipelinedReplica(BaseReplica):
    """One block per view, votes to the next leader, execution ``DEPTH``
    certified links below each proposal."""

    STALE_BLOCK_MSGS = (ChainedProposal,)
    COLLECTORS = ("_votes", "_new_views")
    VIEW_SETS = ("_proposed", "_voted")
    # Votes stamped view-1 are still being collected by this view's
    # leader, so prune two views back.
    PRUNE_SLACK = 2
    #: Direct-parent certified links below a proposal to the block it
    #: executes: 3 for chained HotStuff, 2 for Chained-Damysus.
    DEPTH: ClassVar[int]
    # What each protocol supplies besides its handlers and vote check.
    _propose: Callable[..., None]  # (view, trigger): build, sign and broadcast
    _certified_previous: Callable[[int], bool]  # a view-1 certificate in hand or made
    _certify: Callable[[int, Any, list[Any]], None]  # a vote quorum into that certificate

    def _just_of(self, block: Block) -> QuorumCert | Accumulator:
        """A block's justification; genesis justifies itself at view 0."""
        if block.justify is not None:
            return block.justify
        return genesis_qc(self.store.genesis.hash)

    # -- lifecycle ------------------------------------------------------------------

    def _new_view_action(self) -> None:
        """A leader holding the previous view's certificate proposes at once."""
        self._try_propose(self.view)

    def on_recovered(self) -> None:
        """No rejoin action: a restarted leader has forgotten what it proposed,
        so re-running the new-view action could equivocate (and a checker
        would refuse a second prepare).  It rejoins on the next proposal or
        timeout."""

    # -- leader -----------------------------------------------------------------------

    def _try_propose(self, view: int, trigger: tuple[int, Any] | None = None) -> None:
        """Propose if leading ``view`` with a certificate from ``view - 1``;
        ``trigger`` is the (sender, message) that prompted the attempt."""
        if view not in self._proposed and self.is_leader(view) and self._certified_previous(view):
            self._propose(view, trigger)

    # -- next leader: vote aggregation --------------------------------------------------

    def _collect_vote(self, view: int, block_hash: Any, vote: Any, signer: int) -> None:
        """Count a verified vote; a quorum certifies the block, and the
        leader of ``view + 1``, once there, proposes on it."""
        quorum = self._votes.add((view, block_hash), vote, signer)
        if quorum is None:
            return
        self._certify(view, block_hash, quorum)
        if self.view == view + 1:
            self._try_propose(self.view)

    # -- all replicas: the chain below a proposal ---------------------------------------

    def _links(self, block: Block) -> list[Link]:
        """The certified links below ``block``, newest first, at most
        ``DEPTH``: a missing body or a justification that does not certify
        the direct parent (a failed view) ends the chain."""
        links: list[Link] = []
        child = block
        while len(links) < self.DEPTH:
            certificate = self._just_of(child)
            parent = self.store.get(certificate.hash)
            if parent is None or not child.extends(parent.hash):
                break
            links.append((parent, certificate))
            child = parent
        return links

    def _execute_chain(self, links: list[Link], view: int) -> None:
        """Execute the bottom of a full-depth chain (Section 7.1)."""
        if len(links) == self.DEPTH and not links[-1][0].is_genesis:
            self.execute_block(links[-1][0], view)
