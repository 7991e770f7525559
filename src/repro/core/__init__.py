"""Core consensus data types shared by all six protocols.

This package contains the paper's vocabulary as code: blocks and the
extension relation (Section 5), phases and steps (Section 6.2),
commitments with ``C-combine``/``C-match`` (Section 6.2), quorum
certificates and accumulators (Sections 6.2/7.1), the wire messages with
byte-accurate size accounting, and the execution ledger with a global
safety oracle used by tests and the Section 4 counter-example.
"""
