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
