"""Crash-during-checkpoint durability: the seal store never exposes a
torn or rolled-back checkpoint.

Same modelling as ``test_durable.py``: real Damysus machines built via
the socket runtime's ``build_machine``, process death as *discarding*
the machine object, SIGKILL mid-write as cutting the write short before
the atomic rename.  The checkpoint travels in the replica's one durable
record, beside the sealed checker, so no crash can land between the two.
Certified checkpoints are produced by driving two machines' Checkers to
a real decide certificate, so every checkpoint the tests plant is
authentic - the attacks here are on the *file system*, not on the
signatures.
"""

from dataclasses import replace

import pytest

from repro.core.codec import decode_fields, decode_record, encode_fields, encode_record
from repro.core.phases import Phase
from repro.crypto.hashing import hash_fields
from repro.errors import TEERefusal
from repro.protocols.replica import durable_fields
from repro.runtime.asyncio_net import WallClock, build_machine
from repro.runtime.resilience.durable import DurableSealer
from repro.tee.accumulator import AccumulatorService
from repro.tee.sealed import DurableState, FileSealStore

BLOCK_HASH = b"\x0b" * 32


def chain_headers(start_hash, count, tip_hash=BLOCK_HASH, salt=b"a"):
    """A synthetic ``(block_hash, parent_hash)`` chain ending at ``tip_hash``."""
    headers = []
    prev = start_hash
    for i in range(count):
        block_hash = tip_hash if i == count - 1 else hash_fields(("tb", salt, i))
        headers.append((block_hash, prev))
        prev = block_hash
    return tuple(headers)


def fresh_machine(pid=0, n=3, seed=23, interval=10):
    return build_machine(
        "damysus", pid, n, WallClock(), seed=seed, checkpoint_interval=interval
    )


def decide_qc(machine, helper, view=1):
    """Drive a quorum of checkers to a decide certificate for ``view``."""
    from repro.core.commitment import c_combine

    accs = AccumulatorService(0, machine.scheme, machine.directory, machine.quorum)
    checkers = [machine.checker, helper.checker][: machine.quorum]

    def catch_up(checker):
        while True:
            phi = checker.tee_sign()
            if phi.v_prep == view and phi.phase == Phase.NEW_VIEW:
                return phi

    acc = accs.accumulate([catch_up(c) for c in checkers])
    prepared = c_combine([c.tee_prepare(BLOCK_HASH, acc) for c in checkers])
    return c_combine([c.tee_store(prepared) for c in checkers])


def certify(machine, helper, height, qc=None):
    """Certify a checkpoint at ``height`` and hand it to the replica.

    Headers chain from the checker's current certified tip to a suffix
    tip of ``BLOCK_HASH`` (which the decide QC certifies).
    """
    qc = qc if qc is not None else decide_qc(machine, helper)
    checker = machine.checker
    headers = chain_headers(
        checker.checkpoint_hash,
        height - checker.checkpoint_height,
        salt=height.to_bytes(4, "big"),
    )
    ckpt = checker.tee_checkpoint(headers, qc)
    machine.latest_checkpoint = ckpt
    return ckpt, qc


def with_checkpoint(machine, record, checkpoint):
    """``record`` with its checkpoint swapped for ``checkpoint``: the host
    editing the file, the sealed checker left as it was."""
    state = decode_record(DurableState, record)
    fields = durable_fields(type(machine))
    kinds = [kind for _, _, kind in fields]
    values = decode_fields(kinds, state.payload)
    values[[name for _, name, _ in fields].index("latest_checkpoint")] = checkpoint
    return encode_record(replace(state, payload=encode_fields(kinds, values)))


def test_checkpoint_persisted_with_the_seal_and_restored(tmp_path):
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    ckpt, _ = certify(machine, helper, 10)
    sealer = DurableSealer(machine, store)
    assert sealer.maybe_seal()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"component-{machine.checker.component_id}.counter", "replica-0.state"
    ]
    del machine  # SIGKILL: only the files survive

    reborn = fresh_machine(0)
    reborn_sealer = DurableSealer(reborn, store)
    assert reborn_sealer.restore()
    assert reborn_sealer.restored_checkpoint_height == 10
    assert reborn.latest_checkpoint == ckpt
    # The ledger fast-forwarded to the certified horizon, and consensus
    # resumes past the checkpointed view.
    assert reborn.ledger.height() == 10
    assert reborn.ledger.base_height == 10
    assert reborn.ledger.state_root == ckpt.state_root
    assert reborn.view >= ckpt.view + 1
    # The restored monotonic floor still refuses stale certifications.
    assert reborn.checker.checkpoint_height == 10


def test_torn_checkpoint_write_is_invisible(tmp_path, monkeypatch):
    """SIGKILL before the atomic rename: the old record stays intact."""
    import repro.tee.sealed as sealed_mod

    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    sealer = DurableSealer(machine, store)
    _, qc = certify(machine, helper, 10)
    assert sealer.maybe_seal()
    old = store.load(0)

    certify(machine, helper, 20, qc)

    def killed_mid_write(src, dst):
        raise OSError("simulated SIGKILL before rename")

    monkeypatch.setattr(sealed_mod.os, "replace", killed_mid_write)
    with pytest.raises(OSError):
        sealer.maybe_seal()
    monkeypatch.undo()
    # The visible record is still the complete old one - never a
    # half-written new one - and it restores the old checkpoint.
    assert store.load(0) == old
    reborn = fresh_machine(0)
    assert DurableSealer(reborn, store).restore()
    assert reborn.latest_checkpoint.height == 10


def test_truncated_checkpoint_bytes_never_decode(tmp_path):
    """Fuzz the torn-write surface: every proper prefix of the on-disk
    record is refused, never misread as some other checkpoint."""
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    ckpt, _ = certify(machine, helper, 10)
    DurableSealer(machine, store).maybe_seal()
    path = store.record_path(0)
    full = path.read_bytes()
    for cut in range(len(full)):
        path.write_bytes(full[:cut])
        with pytest.raises(TEERefusal, match="durable record does not decode"):
            DurableSealer(fresh_machine(0), store).restore()
    path.write_bytes(full)
    reborn = fresh_machine(0)
    assert DurableSealer(reborn, store).restore()
    assert reborn.latest_checkpoint == ckpt


def test_corrupt_encoded_checkpoint_is_refused(tmp_path):
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    ckpt, _ = certify(machine, helper, 10)
    DurableSealer(machine, store).maybe_seal()
    path = store.record_path(0)
    data = path.read_bytes()
    # Structurally broken record: the codec cannot finish decoding it.
    path.write_bytes(data[:-4])
    with pytest.raises(TEERefusal, match="durable record does not decode"):
        DurableSealer(fresh_machine(0), store).restore()
    # Bit-flipped checkpoint: decodes, but the Checker signature no longer
    # covers it - a restart refuses it rather than cold-start.
    flipped = replace(ckpt, signature=ckpt.signature._replace(data=bytes(len(ckpt.signature.data))))
    path.write_bytes(with_checkpoint(machine, data, flipped))
    del machine

    reborn = fresh_machine(0)
    with pytest.raises(TEERefusal):
        DurableSealer(reborn, store).restore()


def test_restore_refuses_rolled_back_checkpoint_file(tmp_path):
    """The sealed monotonic certified height outlives a checkpoint rollback."""
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    sealer = DurableSealer(machine, store)
    stale, qc = certify(machine, helper, 10)
    assert sealer.maybe_seal()
    certify(machine, helper, 20, qc)
    assert sealer.maybe_seal()  # a checkpoint advance alone is a new record
    assert sealer.seal_writes == 2
    # Rollback attack: put the height-10 checkpoint back into the latest
    # record (it is authentic and self-verifies, so only the sealed floor
    # can catch this).
    store.record_path(0).write_bytes(with_checkpoint(machine, store.load(0), stale))
    del machine

    reborn = fresh_machine(0)
    with pytest.raises(TEERefusal, match="rolled back"):
        DurableSealer(reborn, store).restore()


def test_forged_checkpoint_file_is_refused_on_restore(tmp_path):
    """A planted checkpoint whose certified payload was tampered with."""
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    ckpt, _ = certify(machine, helper, 10)
    DurableSealer(machine, store).maybe_seal()
    # Tamper with the certified payload: signature no longer covers it.
    forged = replace(ckpt, height=11)
    store.record_path(0).write_bytes(with_checkpoint(machine, store.load(0), forged))
    del machine

    reborn = fresh_machine(0)
    with pytest.raises(TEERefusal):
        DurableSealer(reborn, store).restore()
