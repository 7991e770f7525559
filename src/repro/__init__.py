"""DAMYSUS reproduction: streamlined BFT consensus with trusted components.

A from-scratch Python implementation of the EuroSys 2022 paper
"DAMYSUS: Streamlined BFT Consensus Leveraging Trusted Components"
(Decouchant, Kozhaya, Rahli, Yu), including the Checker and Accumulator
trusted services, the six evaluated protocols (basic/chained HotStuff,
Damysus-C, Damysus-A, Damysus, Chained-Damysus), a deterministic
discrete-event WAN simulator standing in for the paper's AWS deployment,
and a benchmark harness regenerating every table and figure of the
evaluation.

Quickstart::

    from repro import ConsensusSystem, SystemConfig

    system = ConsensusSystem(SystemConfig(protocol="damysus", f=1))
    result = system.run_until_views(10)
    print(result.throughput_kops, result.mean_latency_ms)
"""

from repro.config import SystemConfig
from repro.runtime.sim import ConsensusSystem

__version__ = "1.0.0"

__all__ = ["ConsensusSystem", "SystemConfig", "__version__"]
