"""``repro lint``: AST-based invariant linter for this reproduction.

The simulator's two load-bearing properties - trusted state lives only
behind the TEE interface (paper Section 4.1) and every run is
bit-identical under a seed - are invisible to ordinary linters.  This
package enforces them mechanically:

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

Findings can be suppressed per line with ``# repro-lint: ignore[RULE]``
or waived wholesale via a committed baseline file.
"""

from repro.analysis.lint.engine import (
    BASELINE_DEFAULT,
    Finding,
    all_rule_ids,
    format_findings_json,
    format_findings_text,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.analysis.lint import (  # noqa: F401  (register rules)
    rules_arch,
    rules_det,
    rules_msg,
    rules_tee,
)

__all__ = [
    "BASELINE_DEFAULT",
    "Finding",
    "all_rule_ids",
    "format_findings_json",
    "format_findings_text",
    "load_baseline",
    "run_lint",
    "write_baseline",
]
