"""Benchmark harness: regenerates every table and figure of Section 8.

* :mod:`~repro.bench.runner` - runs (protocol x f x deployment) cells with
  repetitions and aggregates them.
* :mod:`~repro.bench.experiments` - one function per paper artefact:
  Table 1, Fig 6a/6b, Fig 7a/7b, Fig 8, Fig 9.
* :mod:`~repro.bench.reporting` - plain-text table rendering.

The ``benchmarks/`` directory at the repository root contains the
pytest-benchmark entry points that drive these functions at a reduced
scale; run an experiment at full scale by calling it directly, e.g.::

    from repro.bench.experiments import fig6
    print(fig6(payload_bytes=256).render())
"""
