"""Tests for the durable seal store: atomicity, counters, rollback floor.

A seal directory holds two files per replica: its durable record and
its checker's counter.  The store writes and reads bytes; the replica
decodes its record (``BaseReplica.restore``), so a record file's
refusals are checked through a restore, as a restart meets them."""

import json
import random

import pytest

from repro.core.block import genesis_block
from repro.core.codec import decode_record, encode_record
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.errors import TEERefusal
from repro.runtime.resilience.durable import DurableSealer
from repro.tee.checker import Checker
from repro.tee.sealed import DurableState, FileSealStore, SealCounter, SealManager
from tests.runtime.resilience.test_durable_checkpoint import certify, fresh_machine


@pytest.fixture
def checker_factory():
    scheme = HmacScheme(secret=b"seal-store-tests")
    directory = KeyDirectory(scheme)
    genesis = genesis_block()

    def make(pid=0):
        return Checker(pid, scheme, directory, genesis.hash, quorum=2)

    return make


def record(sealed, payload=b""):
    """A durable record holding the snapshot ``sealed``."""
    return encode_record(DurableState(payload, sealed))


def test_save_load_roundtrip(tmp_path, checker_factory):
    store = FileSealStore(tmp_path)
    manager = SealManager()
    checker = checker_factory()
    checker.tee_sign()
    sealed = manager.seal(checker)
    store.save(0, record(sealed))
    assert store.load(0) == record(sealed)
    assert store.load_counter(checker.component_id) == sealed.seal_counter


def test_load_missing_component_returns_none(tmp_path):
    store = FileSealStore(tmp_path)
    assert store.load(123) is None
    assert store.load_counter(123) == 0


def test_counter_record_never_regresses(tmp_path, checker_factory):
    store = FileSealStore(tmp_path)
    manager = SealManager()
    checker = checker_factory()
    first = manager.seal(checker)
    second = manager.seal(checker)
    store.save(0, record(second))
    store.save(0, record(first))  # late write of an older seal
    # The record file may hold the older seal, but the trusted counter
    # record keeps the high-water mark - that is what refuses rollback.
    assert store.load_counter(checker.component_id) == second.seal_counter


def test_prime_manager_installs_the_durable_floor(tmp_path, checker_factory):
    store = FileSealStore(tmp_path)
    manager = SealManager()
    checker = checker_factory()
    old = manager.seal(checker)
    new = manager.seal(checker)
    store.save(0, record(old))
    store.save(0, record(new))

    # A fresh platform (fresh manager, as after SIGKILL + restart) primed
    # from the durable record refuses the stale snapshot...
    fresh_manager = SealManager()
    store.prime_manager(fresh_manager, checker.component_id)
    restarted = checker_factory()
    with pytest.raises(TEERefusal, match="rollback"):
        fresh_manager.unseal_into(restarted, old)
    # ...but accepts the latest one.
    fresh_manager.unseal_into(restarted, new)


def test_unprimed_fresh_manager_would_accept_the_rollback(tmp_path, checker_factory):
    """The control case: without the durable counter record, a fresh
    manager cannot tell the snapshots apart - which is exactly why
    ``restore`` primes before unsealing."""
    manager = SealManager()
    checker = checker_factory()
    old = manager.seal(checker)
    manager.seal(checker)
    naive = SealManager()  # restart without reading the counter record
    restarted = checker_factory()
    naive.unseal_into(restarted, old)  # accepted: the floor was lost


def test_corrupt_snapshot_raises_refusal(tmp_path):
    store, _ = stored_records(tmp_path)
    store.record_path(0).write_text("{not json")
    with pytest.raises(TEERefusal, match="does not decode"):
        restore(store, 0)


def test_corrupt_counter_raises_refusal(tmp_path, checker_factory):
    """What the JSON counter file let through - an out-of-range number, a
    fraction or a boolean read as a counter, nesting deep enough to blow
    the parser's stack - is each a named refusal now."""
    store = FileSealStore(tmp_path)
    checker = checker_factory()
    store.save(0, record(SealManager().seal(checker)))
    path = store.counter_path(checker.component_id)
    hostile = [b'{"latest": 1e999}', b'{"latest": 2.9}', b'{"latest": true}',
               b'{"latest": "zebra"}', b"[" * 100_000, b"\xff\xfe garbage"]
    for data in hostile:
        path.write_bytes(data)
        with pytest.raises(TEERefusal, match="SealCounter record .* is corrupt"):
            store.load_counter(checker.component_id)


def test_counter_record_names_its_component_and_a_non_negative_count(tmp_path):
    store = FileSealStore(tmp_path)
    for planted in (SealCounter(component_id=8, latest=5), SealCounter(component_id=7, latest=-1)):
        store.counter_path(7).write_bytes(encode_record(planted))
        with pytest.raises(TEERefusal, match="SealCounter record .* is corrupt"):
            store.load_counter(7)


def stored_records(tmp_path, with_checkpoint=False):
    """A store holding replica 0's record (a certified checkpoint in it,
    if asked) and its checker's counter."""
    store = FileSealStore(tmp_path)
    machine = fresh_machine(0)
    if with_checkpoint:
        certify(machine, fresh_machine(1), 10)
    else:
        machine.checker.tee_sign()
    assert DurableSealer(machine, store).maybe_seal()
    return store, machine.checker.component_id


def restore(store, component):
    """What a respawned replica 0 makes of the seal directory."""
    return DurableSealer(fresh_machine(0), store).restore()


def record_path(store, component):
    return store.record_path(0)


#: ``(what the file holds, a checkpoint in the record?, path accessor,
#: reader, the refusal)`` for each file shape of a seal directory: the
#: record with a replica's sealed checker, the record also carrying a
#: certified checkpoint, and the checker's counter.
RECORD_FILES = [
    ("SealedState", False, record_path, restore, "durable record does not decode"),
    ("SealCounter", False, FileSealStore.counter_path, FileSealStore.load_counter,
     "SealCounter record .* is corrupt"),
    ("Checkpoint", True, record_path, restore, "durable record does not decode"),
]
RECORD_IDS = [what for what, *_ in RECORD_FILES]


@pytest.mark.parametrize("record", RECORD_FILES, ids=RECORD_IDS)
def test_every_strict_prefix_of_a_record_is_refused(tmp_path, record):
    _what, with_checkpoint, path_of, load, refusal = record
    store, component = stored_records(tmp_path, with_checkpoint)
    path = path_of(store, component)
    full = path.read_bytes()
    for cut in range(len(full)):
        path.write_bytes(full[:cut])
        with pytest.raises(TEERefusal, match=refusal):
            load(store, component)
    path.write_bytes(full)
    load(store, component)


@pytest.mark.parametrize("record", RECORD_FILES, ids=RECORD_IDS)
def test_hostile_record_bytes_are_refused_by_name(tmp_path, record):
    """Garbage, another version, another kind, a trailing byte: refused."""
    _what, with_checkpoint, path_of, load, refusal = record
    store, component = stored_records(tmp_path, with_checkpoint)
    path = path_of(store, component)
    full = path.read_bytes()
    other_version = full[:4] + bytes((full[4] + 1,)) + full[5:]
    other_kind = full[:5] + bytes(((full[5] + 1) % 4,)) + full[6:]
    rng = random.Random(29)
    for data in (rng.randbytes(64), other_version, other_kind, full + b"\x00",
                 b"[" * 100_000, b'{"latest": 1e999}'):
        path.write_bytes(data)
        with pytest.raises(TEERefusal, match=refusal):
            load(store, component)


@pytest.mark.parametrize("record", RECORD_FILES, ids=RECORD_IDS)
def test_old_json_seal_directory_is_refused_by_name(tmp_path, record):
    """A directory the JSON-format build wrote (one JSON file per record
    of a component) is refused, never read as "no files": that would
    cold-start the Checker at step 0."""
    what = record[0]
    store = FileSealStore(tmp_path)
    suffix = {"SealedState": "seal", "SealCounter": "counter", "Checkpoint": "checkpoint"}[what]
    legacy = tmp_path / f"component-7.{suffix}.json"
    legacy.write_text(json.dumps({"component_id": 7, "seal_counter": 3, "latest": 3}))
    with pytest.raises(TEERefusal, match="old JSON seal format"):
        restore(store, 7)


def test_atomic_write_leaves_no_temp_files(tmp_path, checker_factory):
    store = FileSealStore(tmp_path)
    manager = SealManager()
    checker = checker_factory()
    for _ in range(5):
        checker.tee_sign()
        store.save(0, record(manager.seal(checker)))
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def test_components_are_isolated(tmp_path, checker_factory):
    store = FileSealStore(tmp_path)
    manager = SealManager()
    a, b = checker_factory(0), checker_factory(1)
    sealed_a = manager.seal(a)
    sealed_b = manager.seal(b)
    store.save(0, record(sealed_a))
    store.save(1, record(sealed_b))
    assert store.load(0) == record(sealed_a)
    assert store.load(1) == record(sealed_b)
    assert store.load_counter(a.component_id) == sealed_a.seal_counter
    assert store.load_counter(b.component_id) == sealed_b.seal_counter


def test_snapshot_files_are_json_with_counter(tmp_path, checker_factory):
    """Each file decodes to one record, and the records name the counter
    (operators can audit what a replica will restore)."""
    store = FileSealStore(tmp_path)
    checker = checker_factory()
    sealed = SealManager().seal(checker)
    store.save(0, record(sealed, payload=b"fields"))
    component = checker.component_id
    state = decode_record(DurableState, store.record_path(0).read_bytes())
    assert state == DurableState(b"fields", sealed)
    counter = decode_record(SealCounter, store.counter_path(component).read_bytes())
    assert counter == SealCounter(component, sealed.seal_counter)
