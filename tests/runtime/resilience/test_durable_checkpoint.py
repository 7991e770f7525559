"""Crash-during-checkpoint durability: the seal store never exposes a
torn or rolled-back checkpoint (satellite of the checkpoint/catch-up PR).

Same modelling as ``test_durable.py``: real Damysus machines built via
the socket runtime's ``build_machine``, process death as *discarding*
the machine object, SIGKILL mid-write as cutting the write short before
the atomic rename (or between the seal write and the checkpoint write).
Certified checkpoints are produced by driving two machines' Checkers to
a real decide certificate, so every record the tests plant is authentic
- the attacks here are on the *file system*, not on the signatures.
"""

from dataclasses import replace

import pytest

from repro.core.phases import Phase
from repro.crypto.hashing import hash_fields
from repro.errors import TEERefusal
from repro.runtime.asyncio_net import WallClock, build_machine
from repro.runtime.resilience.durable import DurableSealer
from repro.tee.accumulator import AccumulatorService
from repro.tee.sealed import FileSealStore

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


def test_checkpoint_persisted_with_the_seal_and_restored(tmp_path):
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    ckpt, _ = certify(machine, helper, 10)
    sealer = DurableSealer(machine, store)
    assert sealer.maybe_seal()
    assert sealer.checkpoint_writes == 1
    assert store.checkpoint_path(machine.checker.component_id).exists()
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
    old, qc = certify(machine, helper, 10)
    component = machine.checker.component_id
    store.save_checkpoint(component, old)

    newer, _ = certify(machine, helper, 20, qc)

    def killed_mid_write(src, dst):
        raise OSError("simulated SIGKILL before rename")

    monkeypatch.setattr(sealed_mod.os, "replace", killed_mid_write)
    with pytest.raises(OSError):
        store.save_checkpoint(component, newer)
    monkeypatch.undo()
    # The visible record is still the complete old checkpoint - never a
    # half-written new one.
    assert store.load_checkpoint(component) == old


def test_truncated_checkpoint_bytes_never_decode(tmp_path):
    """Fuzz the torn-write surface: every proper prefix of the on-disk
    record is refused, never misread as some other checkpoint."""
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    ckpt, _ = certify(machine, helper, 10)
    component = machine.checker.component_id
    store.save_checkpoint(component, ckpt)
    path = store.checkpoint_path(component)
    full = path.read_bytes()
    assert store.load_checkpoint(component) == ckpt
    for cut in range(len(full)):
        path.write_bytes(full[:cut])
        with pytest.raises(TEERefusal, match="Checkpoint record .* is corrupt"):
            store.load_checkpoint(component)
    path.write_bytes(full)
    assert store.load_checkpoint(component) == ckpt


def test_corrupt_encoded_checkpoint_is_refused(tmp_path):
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    ckpt, _ = certify(machine, helper, 10)
    component = machine.checker.component_id
    store.save_checkpoint(component, ckpt)
    path = store.checkpoint_path(component)
    data = path.read_bytes()
    # Structurally broken record: the codec cannot finish decoding it.
    path.write_bytes(data[:-4])
    with pytest.raises(TEERefusal, match="Checkpoint record .* is corrupt"):
        store.load_checkpoint(component)
    # Bit-flipped record: decodes, but the Checker signature no longer
    # covers the payload - a restart refuses it rather than cold-start.
    path.write_bytes(data[:-4] + b"\x00" * 4)
    assert store.load_checkpoint(component) != ckpt
    del machine

    reborn = fresh_machine(0)
    with pytest.raises(TEERefusal):
        DurableSealer(reborn, store).restore()


def test_checkpoint_file_never_regresses(tmp_path):
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    old, qc = certify(machine, helper, 10)
    newer, _ = certify(machine, helper, 20, qc)
    component = machine.checker.component_id
    store.save_checkpoint(component, newer)
    # Writing the older (authentic!) record is a no-op, not a downgrade.
    store.save_checkpoint(component, old)
    assert store.load_checkpoint(component) == newer


def test_restore_refuses_rolled_back_checkpoint_file(tmp_path):
    """The sealed monotonic certified height outlives a file rollback."""
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    sealer = DurableSealer(machine, store)
    _, qc = certify(machine, helper, 10)
    assert sealer.maybe_seal()
    component = machine.checker.component_id
    stale = store.checkpoint_path(component).read_bytes()
    certify(machine, helper, 20, qc)
    assert sealer.maybe_seal()  # re-seals: the snapshot now certifies 20
    assert sealer.checkpoint_writes == 2
    # Rollback attack: put the height-10 record back (it is authentic
    # and self-verifies, so only the sealed floor can catch this).
    store.checkpoint_path(component).write_bytes(stale)
    del machine

    reborn = fresh_machine(0)
    with pytest.raises(TEERefusal, match="rolled back"):
        DurableSealer(reborn, store).restore()


def test_sigkill_between_seal_and_checkpoint_write(tmp_path, monkeypatch):
    """Crash after the seal landed but before the checkpoint write: the
    restart holds the certified floor with no checkpoint file - it must
    come up clean (and catch up over the network) rather than brick or
    re-certify below the floor."""
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    sealer = DurableSealer(machine, store)
    _, qc = certify(machine, helper, 10)
    monkeypatch.setattr(
        FileSealStore,
        "save_checkpoint",
        lambda self, component_id, checkpoint: (_ for _ in ()).throw(
            OSError("simulated SIGKILL before checkpoint write")
        ),
    )
    with pytest.raises(OSError):
        sealer.maybe_seal()
    monkeypatch.undo()
    assert not store.checkpoint_path(machine.checker.component_id).exists()
    del machine

    reborn = fresh_machine(0)
    assert DurableSealer(reborn, store).restore()
    assert reborn.latest_checkpoint is None
    assert reborn.ledger.height() == 0
    assert reborn.checker.checkpoint_height == 10
    with pytest.raises(TEERefusal):
        # Re-certifying below the restored floor: a from-genesis suffix no
        # longer chains from the sealed certified tip.
        reborn.checker.tee_checkpoint(
            chain_headers(reborn.store.genesis.hash, 5), qc
        )


def test_forged_checkpoint_file_is_refused_on_restore(tmp_path):
    """A planted record signed under a different deployment's keys."""
    store = FileSealStore(tmp_path)
    machine, helper = fresh_machine(0), fresh_machine(1)
    ckpt, _ = certify(machine, helper, 10)
    component = machine.checker.component_id
    # Tamper with the certified payload: signature no longer covers it.
    store.save_checkpoint(component, replace(ckpt, height=11))
    del machine

    reborn = fresh_machine(0)
    with pytest.raises(TEERefusal):
        DurableSealer(reborn, store).restore()
