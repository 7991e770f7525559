"""The per-file rule families of ``repro lint``.

The simulator's two load-bearing properties - trusted state lives only
behind the TEE interface (paper Section 4.1) and every run is
bit-identical under a seed - are invisible to ordinary linters.  These
modules enforce them, and two more invariants, one file at a time:

* ``TEE00x`` - trust-boundary rules: code outside :mod:`repro.tee` must
  use the public ``TEEsign``/``TEEprepare``/``TEEstore``/``TEEstart``/
  ``TEEaccum`` interface, never a component's private state;
* ``DET00x`` - determinism rules: no ambient randomness or wall-clock
  time in simulation code; randomness flows through
  :class:`repro.core.rng.RngStream`, time through the event loop;
* ``MSG00x`` - exhaustiveness rules: declared message types are
  dispatched by some protocol, sent messages have a receiver, and
  ``Phase`` matches cover every phase;
* ``ARCH00x`` - layering rules: the host-agnostic layers
  (:mod:`repro.core`, :mod:`repro.tee`, :mod:`repro.protocols`) must
  not import a runtime host (:mod:`repro.sim` or
  :mod:`repro.runtime.asyncio_net`), and no module may consist of
  re-exports alone.

The rules register in the one registry of :mod:`repro.analysis.engine`,
which also owns suppression, the baseline and :func:`run_lint
<repro.analysis.engine.run_lint>`.
"""
