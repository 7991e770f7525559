"""Real-network fault tolerance for the asyncio runtime.

The simulator has had deterministic fault injection since PR 1
(:mod:`repro.core.faults`); this package ports the same contract to
real sockets and closes the crash-recovery loop end-to-end:

* :mod:`~repro.runtime.resilience.transport` - frame-level fault
  injection between the protocol machines and their peer connections,
  seeded-deterministic per (src, dst, frame sequence);
* :mod:`~repro.runtime.resilience.durable` - durable sealed TEE state:
  every checker step advance is persisted (atomic write + fsync) before
  its signature reaches the wire, so a SIGKILLed replica restarts from
  its latest sealed step and refuses rollback;
* :mod:`~repro.runtime.resilience.supervisor` - spawn / SIGKILL /
  respawn replica processes (the ``repro serve`` entry point);
* :mod:`~repro.runtime.resilience.netchaos` - plays a named fault plan
  (kill, restart, partition, heal) on OS processes behind
  ``repro net-chaos`` and gives it a campaign cell's verdict, read off
  the health samples each ``repro serve`` process writes
  (:func:`repro.runtime.asyncio_net.health_snapshot`).
"""
