"""Tests for sealed storage and restart/rollback protection."""

import pytest

from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import KeyDirectory
from repro.errors import TEERefusal
from repro.core.block import genesis_block
from repro.core.codec import decode_fields, encode_fields
from repro.core.phases import Phase, Step
from repro.tee.checker import ChainedChecker, Checker
from repro.tee.sealed import SealedState, SealManager, _mac, _sealed_fields


@pytest.fixture
def env():
    scheme = HmacScheme(secret=b"seal-tests")
    directory = KeyDirectory(scheme)
    genesis = genesis_block()

    def new_checker(pid=0):
        return Checker(pid, scheme, directory, genesis.hash, quorum=2)

    return new_checker, SealManager()


def advance(checker, signs):
    for _ in range(signs):
        checker.tee_sign()


def test_seal_unseal_restores_state(env):
    new_checker, manager = env
    original = new_checker()
    advance(original, 7)
    sealed = manager.seal(original)
    restarted = new_checker()
    manager.unseal_into(restarted, sealed)
    assert restarted.step == original.step
    assert restarted.prepared_view == original.prepared_view
    assert restarted.prepared_hash == original.prepared_hash


def test_restored_checker_never_repeats_stamps(env):
    """The critical property: a restart cannot rewind the step counter."""
    new_checker, manager = env
    original = new_checker()
    stamps = set()
    for _ in range(5):
        phi = original.tee_sign()
        stamps.add((phi.v_prep, phi.phase))
    sealed = manager.seal(original)
    restarted = new_checker()
    manager.unseal_into(restarted, sealed)
    for _ in range(5):
        phi = restarted.tee_sign()
        assert (phi.v_prep, phi.phase) not in stamps


def test_rollback_to_older_seal_rejected(env):
    new_checker, manager = env
    checker = new_checker()
    advance(checker, 2)
    old_seal = manager.seal(checker)
    advance(checker, 4)
    manager.seal(checker)  # newer seal bumps the latest counter
    restarted = new_checker()
    with pytest.raises(TEERefusal):
        manager.unseal_into(restarted, old_seal)


def test_tampered_seal_rejected(env):
    from dataclasses import replace

    new_checker, manager = env
    checker = new_checker()
    advance(checker, 3)
    sealed = manager.seal(checker)
    # Try to rewind the sealed step by editing the decoded payload.
    names, kinds = _sealed_fields(Checker)
    values = decode_fields(kinds, sealed.payload)
    values[names.index("_step")] = Step(0, Phase.NEW_VIEW)
    forged = replace(sealed, payload=encode_fields(kinds, values))
    assert forged.payload != sealed.payload
    restarted = new_checker()
    with pytest.raises(TEERefusal, match="authentication"):
        manager.unseal_into(restarted, forged)


def test_bumped_seal_counter_is_not_a_rollback_pass(env):
    """The MAC covers the record's counter: raising an old snapshot's
    counter past the floor does not get it through the rollback check."""
    from dataclasses import replace

    new_checker, manager = env
    checker = new_checker()
    old = manager.seal(checker)
    advance(checker, 4)
    newest = manager.seal(checker)
    bumped = replace(old, seal_counter=newest.seal_counter + 1)
    restarted = new_checker()
    with pytest.raises(TEERefusal, match="authentication"):
        manager.unseal_into(restarted, bumped)
    assert restarted.step == new_checker().step


def sealed_state(checker):
    names, _kinds = _sealed_fields(type(checker))
    return {name: getattr(checker, name) for name in names}


def test_undecodable_authentic_payload_leaves_the_checker_untouched(env):
    """No partial restore: every field decodes before any is assigned."""
    new_checker, manager = env
    checker = new_checker()
    advance(checker, 5)
    sealed = manager.seal(checker)
    for payload in (sealed.payload[:-1], sealed.payload + b"\x00", b""):
        # A MAC the seal key really made: only decoding can refuse it.
        forged = SealedState(sealed.component_id, sealed.seal_counter, payload,
                             _mac(checker, sealed.seal_counter, payload))
        restarted = new_checker()
        before = sealed_state(restarted)
        with pytest.raises(TEERefusal, match="does not decode"):
            manager.unseal_into(restarted, forged)
        assert sealed_state(restarted) == before


def test_sealed_fields_are_declared_once_along_the_mro():
    from repro.tee.checker_lock import LockingChecker

    base, _ = _sealed_fields(Checker)
    locking, kinds = _sealed_fields(LockingChecker)
    assert locking == (*base, "_lockv", "_lockh")
    assert len(kinds) == len(locking)
    assert _sealed_fields(ChainedChecker) == _sealed_fields(Checker)


def test_repeated_crash_recover_cycles_stay_monotone(env):
    """Each cycle seals, restarts and unseals; every older seal dies."""
    new_checker, manager = env
    checker = new_checker()
    older_seals = []
    for _ in range(4):
        advance(checker, 2)
        sealed = manager.seal(checker)
        restarted = new_checker()
        manager.unseal_into(restarted, sealed)
        assert restarted.step == checker.step
        checker = restarted
        older_seals.append(sealed)
    # Every seal but the newest is now a rollback.
    for stale in older_seals[:-1]:
        with pytest.raises(TEERefusal):
            manager.unseal_into(new_checker(), stale)
    # The newest one still restores (unseal does not consume it).
    manager.unseal_into(new_checker(), older_seals[-1])


def test_recovered_checker_refuses_resigning_passed_steps(env):
    """Across repeated cycles, no (view, phase) stamp ever repeats."""
    new_checker, manager = env
    checker = new_checker()
    stamps = set()
    for _ in range(3):
        for _ in range(4):
            phi = checker.tee_sign()
            stamp = (phi.v_prep, phi.phase)
            assert stamp not in stamps
            stamps.add(stamp)
        restarted = new_checker()
        manager.unseal_into(restarted, manager.seal(checker))
        checker = restarted


def test_locking_checker_lock_state_survives_sealing():
    from repro.tee.checker_lock import LockingChecker

    scheme = HmacScheme(secret=b"seal-lock-tests")
    directory = KeyDirectory(scheme)
    genesis = genesis_block()
    manager = SealManager()

    def new_locking():
        return LockingChecker(5, scheme, directory, genesis.hash, quorum=2)

    locking = new_locking()
    advance(locking, 3)
    sealed = manager.seal(locking)
    restarted = new_locking()
    manager.unseal_into(restarted, sealed)
    assert restarted.step == locking.step
    assert restarted.locked_view == locking.locked_view
    assert restarted.locked_hash == locking.locked_hash


def test_cross_component_seal_rejected(env):
    new_checker, manager = env
    checker_a = new_checker(0)
    checker_b = new_checker(1)
    sealed = manager.seal(checker_a)
    with pytest.raises(TEERefusal):
        manager.unseal_into(checker_b, sealed)


def test_seal_preserves_prepared_block(env):
    new_checker, manager = env
    checker = new_checker()
    # Simulate a stored prepared block by driving the real flow at view 1
    # is heavyweight here; poke the state through a legitimate seal cycle
    # instead: seal captures whatever the checker currently holds.
    sealed = manager.seal(checker)
    restarted = new_checker()
    manager.unseal_into(restarted, sealed)
    assert restarted.prepared_hash == checker.prepared_hash
    nv = restarted.tee_sign()
    assert nv.phase == Phase.NEW_VIEW
    assert nv.h_just == checker.prepared_hash
