"""Crash-recovery equivalence on durable sealed state (satellite of the
socket-resilience PR): a killed-and-restarted replica process must refuse
to re-sign a lower (view, phase) than its durable seal records, exactly
as the simulator's in-memory rollback tests establish.

These tests build real Damysus machines (via the socket runtime's
``build_machine``) but never open sockets: process death is modelled by
*discarding* the machine object - nothing volatile survives, only the
:class:`FileSealStore` files - and restart by building a fresh machine
from the same arguments and restoring through a fresh
:class:`DurableSealer`, just as ``repro serve --seal-dir`` does.
"""

import json
from dataclasses import replace

import pytest

from repro.core.codec import decode_record, encode_record
from repro.errors import TEERefusal
from repro.runtime.asyncio_net import WallClock, build_machine
from repro.runtime.resilience.durable import DurableSealer
from repro.tee.sealed import FileSealStore, SealedState


def fresh_machine(pid=0, n=4, seed=11):
    return build_machine("damysus", pid, n, WallClock(), seed=seed)


def advance_checker(machine, signs):
    """Advance the trusted step by ``signs`` TEE signatures."""
    for _ in range(signs):
        machine.checker.tee_sign()


def test_roundtrip_restart_restores_the_step(tmp_path):
    store = FileSealStore(tmp_path)
    first = fresh_machine()
    advance_checker(first, 5)
    step_before = first.checker.step
    sealer = DurableSealer(first, store)
    assert sealer.maybe_seal()
    del first  # SIGKILL: volatile state gone, only the files remain

    reborn = fresh_machine()
    restored = DurableSealer(reborn, store).restore()
    assert restored
    assert reborn.checker.step == step_before
    assert reborn.view >= step_before.view


def test_maybe_seal_is_idempotent_per_step(tmp_path):
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    sealer = DurableSealer(machine, store)
    advance_checker(machine, 1)
    assert sealer.maybe_seal()
    assert not sealer.maybe_seal()  # same step: no new write
    advance_checker(machine, 1)
    assert sealer.maybe_seal()
    assert sealer.seal_writes == 2


def test_restart_refuses_rolled_back_snapshot(tmp_path):
    """The durable counter outlives a snapshot rollback.

    The host seals at step A, then at a higher step B, then 'restores'
    the old step-A snapshot file (a rollback attack on the file system).
    The durable counter record still names B's seal, so the fresh
    process must refuse to unseal A.
    """
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    sealer = DurableSealer(machine, store)
    advance_checker(machine, 2)
    assert sealer.maybe_seal()
    stale_snapshot = store.seal_path(machine.checker.component_id).read_bytes()
    advance_checker(machine, 3)
    assert sealer.maybe_seal()
    # Rollback: put the old snapshot back (counter file untouched).
    store.seal_path(machine.checker.component_id).write_bytes(stale_snapshot)
    del machine

    reborn = fresh_machine()
    with pytest.raises(TEERefusal, match="rollback"):
        DurableSealer(reborn, store).restore()


def test_restored_replica_cannot_resign_a_lower_step(tmp_path):
    """The socket-runtime mirror of the simulator's rollback tests: after
    restart, the trusted step equals the sealed step, so every further
    signature is for a strictly higher (view, phase)."""
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    advance_checker(machine, 4)
    DurableSealer(machine, store).maybe_seal()
    sealed_step = machine.checker.step
    del machine

    reborn = fresh_machine()
    DurableSealer(reborn, store).restore()
    assert reborn.checker.step == sealed_step  # resumes exactly at the seal
    cert = reborn.checker.tee_sign()  # the first post-restart signature
    assert cert is not None
    assert reborn.checker.step != sealed_step  # strictly advances from it


def test_restore_without_any_files_is_a_clean_cold_start(tmp_path):
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    sealer = DurableSealer(machine, store)
    assert not sealer.restore()
    assert not sealer.restored


def test_restart_refuses_a_seal_directory_of_the_old_json_format(tmp_path):
    """An upgraded build meets a directory the JSON-format build wrote:
    the restart is refused by name, not a cold start at step 0."""
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    component = machine.checker.component_id
    for suffix in ("seal", "counter"):
        legacy = tmp_path / f"component-{component}.{suffix}.json"
        legacy.write_text(json.dumps({"component_id": component, "seal_counter": 4,
                                      "latest": 4, "payload": "", "mac": ""}))
    with pytest.raises(TEERefusal, match="old JSON seal format"):
        DurableSealer(machine, store).restore()


def test_corrupt_seal_file_is_refused_not_parsed(tmp_path):
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    advance_checker(machine, 1)
    DurableSealer(machine, store).maybe_seal()
    store.seal_path(machine.checker.component_id).write_text('{"component_id": []}')
    del machine

    reborn = fresh_machine()
    with pytest.raises(TEERefusal, match="corrupt"):
        DurableSealer(reborn, store).restore()


def test_tampered_snapshot_fails_authentication(tmp_path):
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    advance_checker(machine, 2)
    DurableSealer(machine, store).maybe_seal()
    path = store.seal_path(machine.checker.component_id)
    sealed = decode_record(SealedState, path.read_bytes())
    payload = bytearray(sealed.payload)
    payload[-1] ^= 0xFF  # flip a bit of the sealed fields
    path.write_bytes(encode_record(replace(sealed, payload=bytes(payload))))
    del machine

    reborn = fresh_machine()
    with pytest.raises(TEERefusal, match="authentication"):
        DurableSealer(reborn, store).restore()


def test_counter_file_lags_snapshot_after_partial_crash(tmp_path):
    """Seal-then-counter write order: a crash between the two writes
    leaves the counter one behind the snapshot, which must still unseal
    (the opposite order would brick the replica)."""
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    sealer = DurableSealer(machine, store)
    advance_checker(machine, 1)
    sealer.maybe_seal()
    component = machine.checker.component_id
    # Simulate the partial crash: seal a higher step but keep the OLD
    # counter record.
    counter_before = store.counter_path(component).read_bytes()
    advance_checker(machine, 2)
    sealer.maybe_seal()
    store.counter_path(component).write_bytes(counter_before)
    del machine

    reborn = fresh_machine()
    assert DurableSealer(reborn, store).restore()
