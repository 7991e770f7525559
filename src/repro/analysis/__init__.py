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

from repro.analysis.complexity import TABLE1_ROWS, Table1Row, expected_messages, table1
from repro.analysis.counterexample import (
    run_checker_scenario,
    run_counter_scenario,
)
from repro.analysis.formulas import LatencyPrediction, predict_latency
from repro.analysis.metrics import (
    improvement_percent,
    latency_decrease_percent,
    mean,
    summarize_runs,
    throughput_increase_percent,
)
from repro.analysis.schedule_fuzz import FuzzOutcome, fuzz

__all__ = [
    "Table1Row",
    "TABLE1_ROWS",
    "table1",
    "expected_messages",
    "run_counter_scenario",
    "run_checker_scenario",
    "mean",
    "summarize_runs",
    "improvement_percent",
    "throughput_increase_percent",
    "latency_decrease_percent",
    "predict_latency",
    "LatencyPrediction",
    "fuzz",
    "FuzzOutcome",
]
