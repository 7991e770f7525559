"""The six evaluated protocols (paper Section 8) and their machinery.

* :mod:`~repro.protocols.hotstuff` - basic HotStuff (3f+1, 3 phases).
* :mod:`~repro.protocols.damysus_c` - Damysus-C (2f+1, 3 phases, Checker).
* :mod:`~repro.protocols.damysus_a` - Damysus-A (3f+1, 2 phases, Accumulator).
* :mod:`~repro.protocols.damysus` - Damysus (2f+1, 2 phases, both).
* :mod:`~repro.protocols.chained_hotstuff` - chained HotStuff.
* :mod:`~repro.protocols.chained_damysus` - Chained-Damysus.

plus the TEE-free 2-phase baseline :mod:`~repro.protocols.fast_hotstuff`.
All seven are declarations over one chassis,
:class:`~repro.protocols.replica.BaseReplica`, and one of three vote
engines; the chained pair share :mod:`~repro.protocols.pipeline`
(``docs/protocols.md`` has the grid).  :class:`repro.runtime.sim.ConsensusSystem` builds and runs a
whole simulated deployment from a :class:`~repro.config.SystemConfig`.
"""

from repro.protocols.chained_damysus import ChainedDamysusReplica
from repro.protocols.chained_hotstuff import ChainedHotStuffReplica
from repro.protocols.client import Client
from repro.protocols.damysus import DamysusReplica
from repro.protocols.damysus_a import DamysusAReplica
from repro.protocols.damysus_c import DamysusCReplica
from repro.protocols.hotstuff import HotStuffReplica
from repro.protocols.pacemaker import Pacemaker, round_robin_leader
from repro.protocols.registry import PROTOCOL_ORDER, SPECS, ProtocolSpec, get_spec
from repro.protocols.replica import BaseReplica
from repro.protocols.state import QuorumCollector

__all__ = [
    "BaseReplica",
    "QuorumCollector",
    "Pacemaker",
    "round_robin_leader",
    "HotStuffReplica",
    "DamysusReplica",
    "DamysusCReplica",
    "DamysusAReplica",
    "ChainedHotStuffReplica",
    "ChainedDamysusReplica",
    "Client",
    "ProtocolSpec",
    "SPECS",
    "PROTOCOL_ORDER",
    "get_spec",
]
