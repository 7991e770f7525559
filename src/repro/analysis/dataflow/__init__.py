"""The whole-program rule families of ``repro lint``.

Where the per-file families (:mod:`repro.analysis.lint`) read one file
at a time, these build a symbol table and call graph over the whole tree
(:mod:`.graph`) and run three interprocedural rule families on top:

* ``TAINT00x`` - host-influenced data crossing the TEE trust boundary
  without passing a registered verifier (:mod:`.rules_taint`); the
  family that re-detects the PR-6 ``tee_checkpoint`` bug, where
  host-supplied ``height``/``state_root`` were certified unverified;
* ``PURE00x`` - transitive effect-purity: nondeterminism or I/O
  reachable through the call graph from a ``Machine`` entry point
  (:mod:`.rules_pure`);
* ``ASYNC00x`` - await-race hazards in the asyncio runtime
  (:mod:`.rules_async`).

The rules register in the one registry of :mod:`repro.analysis.engine`,
so suppression (``# repro-lint: ignore[RULE]``) and the baseline work
the same for them as for every other rule.
"""
