"""Application layer: state machine replication over the consensus core.

The paper treats transaction content as opaque ("mostly application
specific", Section 5).  This package supplies the application a
downstream user actually wants: deterministic state machines driven by
the executed block sequence, with a replicated key-value store as the
reference implementation and a divergence checker that extends the
safety oracle to application state.
"""
