"""Pluggable runtimes for the sans-I/O protocol core.

The protocol machines in :mod:`repro.protocols` emit
:mod:`~repro.runtime.effects` instead of performing I/O; a runtime
interprets those effects:

* :mod:`repro.runtime.sim` - the discrete-event simulator runtime used
  by every benchmark and figure script (bit-identical to the pre-refactor
  architecture);
* :mod:`repro.runtime.asyncio_net` - real asyncio TCP sockets with
  length-prefixed :mod:`repro.core.codec` frames (``repro serve`` /
  ``repro net-bench``).

This package intentionally re-exports only the runtime-agnostic pieces;
import the adapters from their own modules so the protocol layer never
drags in the simulator or asyncio.
"""

from repro.runtime.effects import (
    CancelTimer,
    ChargeCpu,
    Commit,
    Effect,
    Reply,
    Runtime,
    Send,
    SetTimer,
)
from repro.runtime.machine import Machine, MachineTimer

__all__ = [
    "CancelTimer",
    "ChargeCpu",
    "Commit",
    "Effect",
    "Machine",
    "MachineTimer",
    "Reply",
    "Runtime",
    "Send",
    "SetTimer",
]
