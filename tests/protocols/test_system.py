"""Tests for configuration, registry and the system builder."""

import ast
import inspect
import sys
import textwrap

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.protocols.registry import PROTOCOL_ORDER, SPECS, get_spec
from repro.runtime.sim import ConsensusSystem
from tests.conftest import small_config


def test_registry_covers_evaluated_protocols():
    assert set(PROTOCOL_ORDER) <= set(SPECS)
    assert len(PROTOCOL_ORDER) == 6  # the paper's six evaluated protocols
    # Plus the TEE-free ablation baseline from Section 2.
    assert "fast-hotstuff" in SPECS


def test_spec_table_matches_paper_section8():
    """The protocol table of Section 8 ('Implemented protocols') and Table 1,
    plus the Section 2 baseline, as literal values: the registry reads them
    all off the replica classes."""
    hybrid = ((3, 21, 81), (2, 11, 41), (1, 3, 30))  # 2f+1, f+1, (n-1)//2
    plain = ((4, 31, 121), (3, 21, 81), (1, 2, 20))  # 3f+1, 2f+1, (n-1)//3
    both = ("checker", "accumulator")
    # name: (n, quorum and max faults, core phases, steps, chained, trusted components)
    expect = {
        "hotstuff": (plain, 3, 8, False, ()),
        "damysus-c": (hybrid, 3, 8, False, ("checker",)),
        "damysus-a": (plain, 2, 6, False, ("accumulator",)),
        "damysus": (hybrid, 2, 6, False, both),
        "chained-hotstuff": (plain, 3, 8, True, ()),
        "chained-damysus": (hybrid, 2, 6, True, both),
        "fast-hotstuff": (plain, 2, 6, False, ()),
    }
    assert list(expect) == list(SPECS)
    for name, ((ns, quorums, faults), phases, steps, chained, tees) in expect.items():
        spec = get_spec(name)
        assert spec.name == name
        assert tuple(spec.num_replicas(f) for f in (1, 10, 40)) == ns
        assert tuple(spec.quorum(f) for f in (1, 10, 40)) == quorums
        assert tuple(spec.max_faults(n) for n in (4, 7, 61)) == faults
        assert (spec.core_phases, spec.comm_steps) == (phases, steps)
        assert spec.chained is chained
        assert spec.trusted_components == tees


def _constructed_message_classes(replica_class) -> set[type]:
    """Wire-message classes the protocol's own (resolved) methods construct.

    Looks at each method as the class resolves it, so an engine default
    that a protocol overrides does not count; ``replica.py`` is excluded
    because its client, block-fetch and sync traffic bypasses the table.
    """
    constructed: set[type] = set()
    for name in dir(replica_class):
        fn = inspect.unwrap(inspect.getattr_static(replica_class, name))
        if not inspect.isfunction(fn):
            continue
        module = fn.__module__
        if not module.startswith("repro.protocols.") or module == "repro.protocols.replica":
            continue
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                target = fn.__globals__.get(node.func.id)
                if isinstance(target, type) and hasattr(target, "msg_type"):
                    constructed.add(target)
    return constructed


@pytest.mark.parametrize("protocol", SPECS)
def test_handler_table_covers_exactly_what_the_protocol_sends(protocol):
    """No message is sent that the table drops, none tabled that is never sent."""
    replica_class = SPECS[protocol].replica_class
    keys = list(replica_class.HANDLERS)
    tabled = {key[0] if isinstance(key, tuple) else key for key in keys}
    assert tabled == _constructed_message_classes(replica_class)
    # Commitment kinds: exactly the module's KIND_* wire constants.
    kinds = {key[1] for key in keys if isinstance(key, tuple)}
    module = sys.modules[replica_class.__module__]
    assert kinds == {v for k, v in vars(module).items() if k.startswith("KIND_")}
    # Every entry resolved to a method at class creation.
    assert len(replica_class._handlers) == len(keys)


def test_max_faults_follow_replication():
    assert get_spec("hotstuff").max_faults(61) == 20
    assert get_spec("damysus").max_faults(61) == 30


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigError):
        get_spec("pbft-ng")
    with pytest.raises(ConfigError):
        ConsensusSystem(small_config("nope"))


def test_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig(f=0)
    with pytest.raises(ConfigError):
        SystemConfig(block_size=0)
    with pytest.raises(ConfigError):
        SystemConfig(payload_bytes=-1)


def test_system_builds_right_process_count():
    system = ConsensusSystem(small_config("hotstuff", f=2))
    assert len(system.replicas) == 7
    assert len(system.network.processes) == 7


def test_system_with_clients():
    config = small_config(
        "damysus", open_loop=False, num_clients=2, client_interval_ms=5.0
    )
    system = ConsensusSystem(config)
    assert len(system.clients) == 2
    assert len(system.network.processes) == 3 + 2


def test_run_for_fixed_duration():
    system = ConsensusSystem(small_config("damysus"))
    result = system.run(150.0)
    assert result.duration_ms == pytest.approx(150.0)


def test_start_is_idempotent():
    system = ConsensusSystem(small_config("damysus"))
    system.start()
    system.start()
    result = system.run_until_views(2, max_time_ms=60_000)
    assert result.safe


def test_result_fields_consistent():
    system = ConsensusSystem(small_config("damysus"))
    result = system.run_until_views(3, max_time_ms=60_000)
    assert result.protocol == "damysus"
    assert result.f == 1
    assert result.num_replicas == 3
    assert result.committed_views == result.committed_blocks  # one block per view
    assert result.bytes_sent > 0
    assert result.messages_sent > 0


def test_max_timeout_validation():
    with pytest.raises(ConfigError):
        SystemConfig(max_timeout_ms=-1.0)
    with pytest.raises(ConfigError):
        SystemConfig(timeout_ms=500.0, max_timeout_ms=100.0)  # below base


def test_max_timeout_reaches_every_pacemaker():
    system = ConsensusSystem(
        small_config("damysus", timeout_ms=200.0, max_timeout_ms=900.0)
    )
    assert all(r.pacemaker.max_timeout_ms == 900.0 for r in system.replicas)
    # 0 keeps the historical default: four times the base timeout.
    default = ConsensusSystem(small_config("damysus", timeout_ms=200.0))
    assert all(r.pacemaker.max_timeout_ms == 800.0 for r in default.replicas)
