"""Byzantine behaviours for safety and liveness testing.

Every attack is one :class:`~repro.adversary.behaviors.Behaviour`: the
untrusted-side hooks it deviates on, written once and composed by the
registry in front of any protocol's replica class whose messages it
speaks.  Adversaries deviate on the *untrusted* side only: they may call
their trusted components in any order with any arguments, delay or
withhold messages, and equivocate where no TEE stops them - but they can
never forge TEE certificates or read TEE-private state, which is exactly
the paper's hybrid fault model.

* :mod:`~repro.adversary.behaviors` - the behaviour base, and the silent
  leader whose every view times out.
* :mod:`~repro.adversary.equivocation` - leaders proposing conflicting
  blocks (succeeds in sowing confusion in HotStuff, hard-refused by the
  Damysus checker).
* :mod:`~repro.adversary.stale_leader` - leaders extending stale blocks
  (masked by locking in HotStuff, impossible past the accumulator in
  Damysus).
* :mod:`~repro.adversary.flooding` - far-future message floods against
  the bounded buffers.
* :mod:`~repro.adversary.slow_drip` - leaders proposing just under the
  view timeout to bleed throughput without view-changes.
* :mod:`~repro.adversary.withholding` - a coalition of f replicas that
  silently withholds its phase votes.
* :mod:`~repro.adversary.targeted_partition` - a FaultPlan-colluding
  attacker isolating the next f leaders.
* :mod:`~repro.adversary.sync_server` - forged checkpoints and block
  suffixes served to catching-up peers.
* :mod:`~repro.adversary.amnesia` - crash-recovery presenting an older
  durable record, expecting :class:`~repro.errors.TEERefusal`.
* :mod:`~repro.adversary.spammer` - min-fee transaction floods against
  the bounded priority mempool.
* :mod:`~repro.adversary.registry` - every attack addressable by name
  (``repro campaign``, ``repro net-chaos --adversary``), and each one's
  replica class per protocol (``get_adversary(name).replica_class(protocol)``).
"""

from repro.adversary.registry import (
    ADVERSARIES,
    AdversarySpec,
    adversary_names,
    get_adversary,
)
from repro.adversary.targeted_partition import leader_isolation_plan, victim_pids

__all__ = [
    "leader_isolation_plan",
    "victim_pids",
    "ADVERSARIES",
    "AdversarySpec",
    "adversary_names",
    "get_adversary",
]
