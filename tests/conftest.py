"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Any

import pytest

from repro.config import SystemConfig
from repro.costs import CostModel
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.core.block import genesis_block
from repro.runtime.effects import Reply
from repro.runtime.machine import Machine
from repro.runtime.sim import ConsensusSystem, MachineProcess
from repro.sim.network import Network


@pytest.fixture
def scheme():
    """A fresh fast signature scheme."""
    return HmacScheme(secret=b"test-suite")


@pytest.fixture
def directory(scheme):
    """A key directory with 8 replicas and their TEEs registered."""
    directory = KeyDirectory(scheme)
    for pid in range(8):
        directory.register_replica(pid)
        directory.register_tee(pid)
    return directory


@pytest.fixture
def genesis():
    return genesis_block()


def small_config(protocol: str, f: int = 1, **overrides) -> SystemConfig:
    """A fast configuration for logic-level protocol tests."""
    params = dict(
        protocol=protocol,
        f=f,
        payload_bytes=0,
        block_size=5,
        seed=42,
        timeout_ms=500.0,
        costs=CostModel.zero(),
    )
    params.update(overrides)
    return SystemConfig(**params)


def tcp_config(protocol: str = "damysus", **overrides) -> SystemConfig:
    """The `repro serve` / `net-bench` defaults: 128 B payloads, 32-tx blocks."""
    params: dict[str, Any] = dict(payload_bytes=128, block_size=32)
    params.update(overrides)
    return SystemConfig(protocol=protocol, **params)


def run_protocol(protocol: str, views: int = 5, f: int = 1, **overrides):
    """Build, run and return (system, result) for quick assertions."""
    system = ConsensusSystem(small_config(protocol, f=f, **overrides))
    result = system.run_until_views(views, max_time_ms=120_000)
    return system, result


def client_replies(effects: list[Any]) -> list[tuple[int, Any]]:
    """``(pid, ClientReply)`` of every client answer in an effect list: a
    replica answers clients with :class:`Reply` effects, one per executed
    block or admission pass."""
    return [send for effect in effects if type(effect) is Reply for send in effect.sends]


class Recorder(Machine):
    """A machine that records each delivery as ``(time, sender, payload)``."""

    def __init__(self, pid: int, clock: Any) -> None:
        super().__init__(pid, clock)
        self.received: list[tuple[float, int, Any]] = []

    def on_message(self, sender: int, payload: Any) -> None:
        self.received.append((self.now, sender, payload))


def seat_recorders(network: Network, *pids: int) -> list[Recorder]:
    """One :class:`Recorder` per pid, each seated on ``network`` by a MachineProcess."""
    recorders = [Recorder(pid, network.sim) for pid in pids]
    for recorder in recorders:
        network.add_process(MachineProcess(recorder, network.sim))
    return recorders
