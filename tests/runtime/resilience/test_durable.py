"""Crash-recovery equivalence on the durable record: a killed-and-restarted
replica process must refuse to re-sign a lower (view, phase) than its
durable record holds, exactly as the simulator's crash and recovery do.

These tests build real machines (via the socket runtime's
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
from repro.runtime.sim import ConsensusSystem
from repro.tee.sealed import DurableState, FileSealStore
from tests.conftest import small_config


def fresh_machine(pid=0, n=4, seed=11, protocol="damysus"):
    return build_machine(protocol, pid, n, WallClock(), seed=seed)


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
    assert not sealer.maybe_seal()  # same step, same durable fields: no new write
    advance_checker(machine, 1)
    assert sealer.maybe_seal()
    machine.pacemaker.current_timeout_ms *= 2  # a durable field alone moves
    assert sealer.maybe_seal()
    assert sealer.seal_writes == 3


class SimulatorHost:
    """A simulated replica: a crash writes its record to ``disk``."""

    def __init__(self, tmp_path):
        self.system = ConsensusSystem(small_config("damysus", f=1, timeout_ms=250))
        self.system.start()
        self.replica = self.system.replicas[2]
        self.until = 0.0

    def write(self):
        if self.replica.crashed:
            self.replica.recover()
        self.until += 300.0
        self.system.sim.run(until=self.until)
        self.replica.crash()  # seals at the next counter
        return self.replica.disk

    def put_back(self, record):
        self.replica.disk = record

    def restart(self):
        self.replica.recover()
        return self.replica

    def down(self):
        return self.replica.crashed

    def restarts(self):
        return self.replica.recovery_count


class FileStoreHost:
    """A ``repro serve --seal-dir`` process: the record lives in a file."""

    def __init__(self, tmp_path):
        self.store = FileSealStore(tmp_path)
        self.replica = fresh_machine()
        self.sealer = DurableSealer(self.replica, self.store)
        self.up, self.restored = True, 0

    def write(self):
        advance_checker(self.replica, 2)
        assert self.sealer.maybe_seal()
        return self.store.record_path(0).read_bytes()

    def put_back(self, record):
        self.store.record_path(0).write_bytes(record)  # counter file untouched

    def restart(self):
        self.replica, self.up = fresh_machine(), False  # the kill
        assert DurableSealer(self.replica, self.store).restore()
        self.up = True  # a refused restore never reaches start()
        self.restored += 1
        return self.replica

    def down(self):
        return not self.up

    def restarts(self):
        return self.restored


@pytest.mark.parametrize("host_class", [SimulatorHost, FileStoreHost],
                         ids=["simulator", "file-store"])
def test_an_older_record_put_back_is_refused(host_class, tmp_path):
    """The rollback attack on either host: the host writes a record, then
    a later one, and puts the older (authentic) record back before the
    restart.  The seal counter still names the later seal, so the
    restart is refused and the replica stays down; the genuine latest
    record still restores."""
    host = host_class(tmp_path)
    stale = host.write()  # seal counter N
    genuine = host.write()  # seal counter N + 1
    step = host.replica.checker.step
    restarts = host.restarts()
    host.put_back(stale)
    with pytest.raises(TEERefusal, match="rollback"):
        host.restart()
    assert host.down()  # the rollback attempt did not revive it
    assert host.restarts() == restarts
    host.put_back(genuine)
    checker = host.restart().checker
    assert checker.step.index(checker.step_rule) >= step.index(checker.step_rule)
    assert not host.down()
    assert host.restarts() == restarts + 1


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


@pytest.mark.parametrize("suffix", ["seal", "checkpoint"])
def test_restart_refuses_a_seal_directory_of_the_three_file_format(tmp_path, suffix):
    """The build before the one-record format wrote a checker's snapshot
    and its checkpoint to separate ``.seal`` / ``.checkpoint`` files: a
    directory holding one and no record is refused by name, in one line."""
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    legacy = tmp_path / f"component-{machine.checker.component_id}.{suffix}"
    legacy.write_bytes(b"DMYS\x02\x00")
    with pytest.raises(TEERefusal, match="three-file seal format") as refusal:
        DurableSealer(machine, store).restore()
    assert str(legacy) in str(refusal.value) and "\n" not in str(refusal.value)


def test_corrupt_seal_file_is_refused_not_parsed(tmp_path):
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    advance_checker(machine, 1)
    DurableSealer(machine, store).maybe_seal()
    store.record_path(0).write_text('{"component_id": []}')
    del machine

    reborn = fresh_machine()
    with pytest.raises(TEERefusal, match="does not decode"):
        DurableSealer(reborn, store).restore()


def test_tampered_snapshot_fails_authentication(tmp_path):
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    advance_checker(machine, 2)
    DurableSealer(machine, store).maybe_seal()
    path = store.record_path(0)
    state = decode_record(DurableState, path.read_bytes())
    payload = bytearray(state.sealed.payload)
    payload[-1] ^= 0xFF  # flip a bit of the sealed fields
    tampered = replace(state, sealed=replace(state.sealed, payload=bytes(payload)))
    path.write_bytes(encode_record(tampered))
    del machine

    reborn = fresh_machine()
    with pytest.raises(TEERefusal, match="authentication"):
        DurableSealer(reborn, store).restore()


def test_counter_file_lags_snapshot_after_partial_crash(tmp_path):
    """Record-then-counter write order: a crash between the two writes
    leaves the counter one behind the record's seal, which must still
    unseal (the opposite order would brick the replica)."""
    store = FileSealStore(tmp_path)
    machine = fresh_machine()
    sealer = DurableSealer(machine, store)
    advance_checker(machine, 1)
    sealer.maybe_seal()
    component = machine.checker.component_id
    # Simulate the partial crash: write a record at a higher step but keep
    # the OLD counter record.
    counter_before = store.counter_path(component).read_bytes()
    advance_checker(machine, 2)
    sealer.maybe_seal()
    store.counter_path(component).write_bytes(counter_before)
    del machine

    reborn = fresh_machine()
    assert DurableSealer(reborn, store).restore()


def test_a_respawned_checkerless_replica_keeps_its_certificates(tmp_path):
    """HotStuff has no checker to seal, but its record still carries its
    ``DURABLE`` certificates: a respawn resumes with the pre-kill lock."""
    store = FileSealStore(tmp_path)
    machine = fresh_machine(protocol="hotstuff")
    lock = replace(machine.locked_qc, view=7)
    machine.locked_qc, machine.prepare_qc, machine.view = lock, lock, 8
    DurableSealer(machine, store).maybe_seal()
    assert [path.name for path in tmp_path.iterdir()] == ["replica-0.state"]
    del machine

    reborn = fresh_machine(protocol="hotstuff")
    assert DurableSealer(reborn, store).restore()
    assert (reborn.locked_qc, reborn.prepare_qc, reborn.view) == (lock, lock, 8)
