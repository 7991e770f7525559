"""Discrete-event simulation substrate.

This package is the stand-in for the paper's AWS deployment: a
deterministic discrete-event simulator with a virtual clock, a network
that carries messages over simulated wide-area links, and latency models
that implement the partial-synchrony assumption (arbitrary delays before
GST, bounded by delta after GST).  The actors are sans-I/O machines,
each seated on the network by :class:`repro.runtime.sim.MachineProcess`.

Its modules:

* :class:`~repro.sim.events.Simulator` - the event loop and virtual clock.
* :class:`~repro.sim.network.Network` - message delivery between processes.
* :mod:`~repro.sim.latency` - latency models (constant, matrix, GST).
* :mod:`~repro.sim.regions` - AWS-like inter-region RTT data sets.
* :class:`~repro.sim.monitor.Monitor` - message/byte/latency accounting.
"""
