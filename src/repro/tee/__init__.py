"""Trusted components (paper Section 4).

Each replica hosts instances of these services in a trusted execution
environment; in the hybrid fault model everything at a faulty node can be
tampered with *except* this package's objects.  The enforcement here is by
convention + encapsulation: private keys and protected state live in
underscore attributes that protocol and adversary code never reads, and
all interaction goes through the ``TEE*`` methods, which check their
guards and raise :class:`~repro.errors.TEERefusal` when violated.

Services:

* :class:`~repro.tee.checker.Checker` - Damysus's checker (Fig 2b).
* :class:`~repro.tee.checker_lock.LockingChecker` - Damysus-C's checker,
  which additionally persists locked blocks (Section 4.1).
* :class:`~repro.tee.accumulator.AccumulatorService` - the accumulator
  over checker commitments (Fig 2b).
* :class:`~repro.tee.accumulator.QCAccumulatorService` - the Damysus-A
  variant that accumulates signed prepare-QC reports instead.
* :class:`~repro.tee.counter.TrustedCounter` - a plain TrInc/MinBFT-style
  monotonic counter, shown insufficient for streamlined protocols in
  Section 4 (see :mod:`repro.analysis.counterexample`).
"""
