"""Analytic models and scripted demonstrations.

* :mod:`~repro.analysis.complexity` - Table 1's closed-form replica,
  step and message counts for all eight protocols the paper compares.
* :mod:`~repro.analysis.metrics` - aggregation helpers over simulation
  results (means over seeds, improvement percentages for Fig 8).
* :mod:`~repro.analysis.counterexample` - the Section 4 demonstration
  that a plain trusted counter cannot make a 2f+1 streamlined protocol
  safe, and that the Damysus checker + accumulator close the hole.
* :mod:`~repro.analysis.campaign` - protocols under fault plans and
  attacks, scored by safety, liveness and degradation oracles (the
  honest ``chaos`` cell is ``repro campaign --adversaries none --plans
  chaos --topologies eu``).
"""
