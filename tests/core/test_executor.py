"""Tests for the execution ledger and the global safety oracle."""

import pytest

from repro.errors import ProtocolError, SafetyViolation
from repro.core.block import create_leaf
from repro.core.chain import BlockStore
from repro.core.executor import Ledger, SafetyOracle
from repro.core.keyset import ClientKeySet
from repro.core.mempool import Transaction


def tx(i):
    return Transaction(client_id=0, tx_id=i, payload_bytes=0)


def build_chain(store, length, tag=0, parent=None):
    parent = parent or store.genesis.hash
    blocks = []
    for i in range(length):
        block = create_leaf(parent, i + 1, (tx(tag * 100 + i),), created_at=float(i))
        store.add(block)
        blocks.append(block)
        parent = block.hash
    return blocks


def test_execute_in_order():
    store = BlockStore()
    ledger = Ledger(0, store)
    blocks = build_chain(store, 3)
    for b in blocks:
        newly = ledger.execute(b)
        assert [x.hash for x in newly] == [b.hash]
    assert ledger.height() == 3
    assert ledger.last_executed_hash == blocks[-1].hash


def test_execute_catches_up_ancestors():
    """Executing a descendant executes skipped ancestors first (Fig 5a)."""
    store = BlockStore()
    ledger = Ledger(0, store)
    blocks = build_chain(store, 4)
    newly = ledger.execute(blocks[3])
    assert [b.hash for b in newly] == [b.hash for b in blocks]


def test_execute_idempotent():
    store = BlockStore()
    ledger = Ledger(0, store)
    [b] = build_chain(store, 1)
    assert len(ledger.execute(b)) == 1
    assert ledger.execute(b) == []
    assert ledger.height() == 1


def test_execute_rejects_fork():
    store = BlockStore()
    ledger = Ledger(0, store)
    main = build_chain(store, 2, tag=1)
    fork = build_chain(store, 2, tag=2)
    ledger.execute(main[1])
    with pytest.raises(ProtocolError):
        ledger.execute(fork[1])


def test_oracle_accepts_agreement():
    oracle = SafetyOracle()
    for replica in range(3):
        oracle.record(replica, b"a")
        oracle.record(replica, b"b")
    assert oracle.safe
    assert oracle.canonical_chain() == [b"a", b"b"]


def test_oracle_accepts_prefixes():
    oracle = SafetyOracle()
    oracle.record(0, b"a")
    oracle.record(0, b"b")
    oracle.record(1, b"a")  # replica 1 is simply behind
    assert oracle.safe


def test_oracle_detects_divergence_strict():
    oracle = SafetyOracle(strict=True)
    oracle.record(0, b"a")
    with pytest.raises(SafetyViolation):
        oracle.record(1, b"x")


def test_oracle_records_divergence_non_strict():
    oracle = SafetyOracle(strict=False)
    oracle.record(0, b"a")
    oracle.record(1, b"x")
    assert not oracle.safe
    [violation] = oracle.violations
    assert violation.index == 0
    assert violation.replica == 1
    assert "executed" in violation.describe()


def test_oracle_detects_later_divergence():
    oracle = SafetyOracle(strict=False)
    oracle.record(0, b"a")
    oracle.record(0, b"b")
    oracle.record(1, b"a")
    oracle.record(1, b"c")  # diverges at index 1
    assert not oracle.safe
    assert oracle.violations[0].index == 1


def test_oracle_buffers_ahead_records_and_splices_them():
    """A checkpointed replica runs ahead of the canonical frontier; its
    executions are held and spliced in once the frontier catches up."""
    oracle = SafetyOracle(strict=True)
    oracle.install_checkpoint(1, 2, b"b")  # replica 1 fast-forwards past 2
    oracle.record(1, b"c")  # index 2, beyond the (empty) canonical chain
    assert oracle.canonical_chain() == []
    oracle.record(0, b"a")  # frontier advances; buffered records splice in
    assert oracle.canonical_chain() == [b"a", b"b", b"c"]
    oracle.record(0, b"b")  # the slow replica agrees with the spliced run
    oracle.record(0, b"c")
    assert oracle.safe


def test_oracle_detects_divergence_beyond_frontier():
    """Two checkpointed replicas disagreeing above the frontier is caught
    immediately, not silently dropped (strict mode stays live)."""
    oracle = SafetyOracle(strict=True)
    oracle.install_checkpoint(1, 2, b"b")
    oracle.record(1, b"c")  # holds index 2 = c
    with pytest.raises(SafetyViolation):
        oracle.install_checkpoint(2, 3, b"x")  # claims index 2 = x


def test_oracle_flags_late_replica_against_spliced_records():
    oracle = SafetyOracle(strict=False)
    oracle.install_checkpoint(1, 1, b"b")  # holds index 0 = b
    oracle.record(0, b"a")  # a slow replica disagrees at the frontier
    assert not oracle.safe
    [violation] = oracle.violations
    assert violation.index == 0
    assert violation.replica == 0
    # The first-observed (checkpointed) claim became canonical.
    assert oracle.canonical_chain() == [b"b"]


def test_ledger_reports_to_oracle():
    store = BlockStore()
    oracle = SafetyOracle()
    ledger_a = Ledger(0, store, oracle=oracle)
    ledger_b = Ledger(1, store, oracle=oracle)
    blocks = build_chain(store, 2)
    ledger_a.execute(blocks[1])
    ledger_b.execute(blocks[1])
    assert oracle.safe
    assert len(oracle.sequences) == 2


# -- exactly-once application --------------------------------------------------


def test_recarried_key_is_skipped_the_same_way_at_every_replica():
    """A block re-carrying an applied key applies only what is new - and the
    applied tuple is a function of the chain, so two replicas agree on it."""
    oracle = SafetyOracle(strict=True)
    store = BlockStore()
    first = create_leaf(store.genesis.hash, 1, (tx(0), tx(1)))
    # Carries 1 again, 2 twice, and filler that is no client's request.
    filler = Transaction(client_id=-1, tx_id=0, payload_bytes=0)
    second = create_leaf(first.hash, 2, (tx(1), filler, tx(2), tx(2), filler))
    store.add(first)
    store.add(second)
    for replica in (0, 1):
        ledger = Ledger(replica, store, oracle)
        ledger.execute(second)
        assert tuple(ledger.applied_transactions(first)) == (tx(0), tx(1))
        assert tuple(ledger.applied_transactions(second)) == (filler, tx(2), filler)
        assert ledger.filtered == 2
        assert (0, 2) in ledger.applied and (0, 3) not in ledger.applied
    assert oracle.safe


def test_out_of_order_ids_collapse_into_the_watermark():
    applied = ClientKeySet()
    for tx_id in (2, 1, 4):
        assert applied.add((7, tx_id))
    assert applied._ahead == {7: {1, 2, 4}}
    assert applied.add((7, 0))  # 0, 1, 2 are now one watermark; 4 still waits for 3
    assert applied._next == {7: 3} and applied._ahead == {7: {4}}
    assert not applied.add((7, 1)) and not applied.add((7, 4))
    assert (7, 2) in applied and (7, 4) in applied and (7, 3) not in applied
    assert applied.add((7, 3))
    assert applied._next == {7: 5} and applied._ahead == {}  # O(clients) again
    assert (7, 4) in applied and (7, 5) not in applied
    assert (8, 0) not in applied  # another client's ids are its own


def test_apply_synced_feeds_the_same_record():
    store = BlockStore()
    first = create_leaf(store.genesis.hash, 1, (tx(0), tx(1)))
    second = create_leaf(first.hash, 2, (tx(1), tx(2)))
    store.add(first)
    store.add(second)
    replayed = Ledger(0, store)
    replayed.execute(second)
    synced = Ledger(1, BlockStore())  # state transfer: no stored path needed
    synced.apply_synced(first)
    synced.apply_synced(second)
    for block in (first, second):
        assert synced.applied_transactions(block) == replayed.applied_transactions(block)
    assert synced.filtered == replayed.filtered == 1
    assert synced.last_executed_view == 2


def test_synthetic_filler_is_never_a_duplicate():
    """Every leader numbers its own filler from zero; none of it is filtered."""
    store = BlockStore()
    filler = tuple(Transaction(client_id=-1, tx_id=i, payload_bytes=0) for i in range(3))
    first = create_leaf(store.genesis.hash, 1, filler)
    second = create_leaf(first.hash, 2, filler)
    store.add(first)
    store.add(second)
    ledger = Ledger(0, store)
    ledger.execute(second)
    assert tuple(ledger.applied_transactions(second)) == filler
    assert ledger.filtered == 0
    assert first.client_keys() == ()


def test_oracle_raises_on_a_double_application_in_strict_mode():
    oracle = SafetyOracle(strict=True)
    oracle.record(0, b"a", ((3, 0), (3, 1)))
    with pytest.raises(SafetyViolation):
        oracle.record(0, b"b", ((3, 1),))


def test_oracle_records_a_double_application_in_recording_mode():
    oracle = SafetyOracle(strict=False)
    oracle.record(0, b"a", ((3, 0),))
    oracle.record(0, b"b", ((3, 0), (3, 1), (3, 1)))
    assert not oracle.safe
    across, within = oracle.violations
    assert (across.index, across.key, across.first_index) == (1, (3, 0), 0)
    assert (within.index, within.key, within.first_index) == (1, (3, 1), 1)
    assert "already applied" in across.describe()


def test_oracle_flags_replicas_applying_different_keys_at_one_height():
    oracle = SafetyOracle(strict=False)
    oracle.record(0, b"a", ((3, 0),))
    oracle.record(1, b"a", ((3, 0),))
    assert oracle.safe
    oracle.record(2, b"a", ())
    [violation] = oracle.violations
    assert (violation.index, violation.replica, violation.key) == (0, 2, None)
    assert "other client keys" in violation.describe()


def test_oracle_exempts_a_checkpointed_replica_from_the_applied_check():
    """Its record starts at the checkpoint, so it may apply a key again."""
    oracle = SafetyOracle(strict=True)
    oracle.record(0, b"a", ((3, 0),))
    oracle.record(0, b"b", ())
    oracle.install_checkpoint(1, 1, b"a")
    oracle.record(1, b"b", ((3, 0),))  # re-carried; replica 1 never saw index 0
    assert oracle.safe
