"""Benchmark harness: regenerates every table and figure of Section 8.

* :mod:`~repro.bench.runner` - runs (protocol x f x deployment) cells with
  repetitions and aggregates them.
* :mod:`~repro.bench.experiments` - one function per paper artefact:
  Table 1, Fig 6a/6b, Fig 7a/7b, Fig 8, Fig 9.
* :mod:`~repro.bench.reporting` - plain-text table rendering.

``scripts/run_full_experiments.py`` drives these functions over the
paper's grid into ``results/full_results.json``, whose shapes
``tests/bench/test_figure_shapes.py`` asserts; run one experiment by
calling it directly, e.g.::

    from repro.bench.experiments import fig6
    print(fig6(payload_bytes=256).render())
"""
