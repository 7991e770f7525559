"""The bounded priority mempool: verdicts, ordering, caps, determinism."""

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.codec import encode_message
from repro.core.mempool import AdmissionVerdict, Transaction
from repro.core.messages import ClientRequest
from repro.core.rng import RngStream
from repro.mempool.pool import PriorityMempool

ACCEPTED = AdmissionVerdict.ACCEPTED
DUPLICATE = AdmissionVerdict.DUPLICATE
POOL_FULL = AdmissionVerdict.POOL_FULL
RATE_LIMITED = AdmissionVerdict.RATE_LIMITED


def tx(client=0, tx_id=0, payload=16, fee=0):
    return Transaction(client_id=client, tx_id=tx_id, payload_bytes=payload, fee=fee)


def closed_pool(**kwargs):
    kwargs.setdefault("max_txs", 1000)
    return PriorityMempool(16, 4, open_loop=False, **kwargs)


# -- admission verdicts ------------------------------------------------------


def test_accepts_distinct_transactions():
    pool = closed_pool()
    assert pool.admit(tx(0, 1), 0.0) is ACCEPTED
    assert pool.admit(tx(0, 2), 0.0) is ACCEPTED
    assert pool.pending() == 2


def test_duplicate_pending_rejected():
    pool = closed_pool()
    assert pool.admit(tx(0, 1), 0.0) is ACCEPTED
    assert pool.admit(tx(0, 1), 0.0) is DUPLICATE
    assert pool.pending() == 1


def test_replay_of_drained_transaction_rejected():
    """A transaction that already made it into a block must not re-enter."""
    pool = closed_pool()
    pool.admit(tx(0, 1), 0.0)
    assert tuple(pool.take_block(1.0)) == (tx(0, 1),)
    assert pool.admit(tx(0, 1), 2.0) is DUPLICATE


def test_same_tx_id_different_clients_are_distinct():
    pool = closed_pool()
    assert pool.admit(tx(0, 1), 0.0) is ACCEPTED
    assert pool.admit(tx(1, 1), 0.0) is ACCEPTED


def test_rate_limited_sender_nacked_and_recovers():
    pool = closed_pool(rate_limit_per_ms=1.0, rate_burst=2.0)
    assert pool.admit(tx(0, 1), 0.0) is ACCEPTED
    assert pool.admit(tx(0, 2), 0.0) is ACCEPTED
    assert pool.admit(tx(0, 3), 0.0) is RATE_LIMITED
    # The refused submission may be retried once the bucket refills.
    assert pool.admit(tx(0, 3), 1.0) is ACCEPTED


def test_rate_limited_rejection_is_not_a_replay():
    pool = closed_pool(rate_limit_per_ms=0.001, rate_burst=1.0)
    assert pool.admit(tx(0, 1), 0.0) is ACCEPTED
    assert pool.admit(tx(0, 2), 0.0) is RATE_LIMITED
    assert pool.admit(tx(0, 2), 10_000.0) is ACCEPTED  # not DUPLICATE


# -- capacity and eviction ---------------------------------------------------


def test_count_cap_evicts_lowest_fee():
    pool = closed_pool(max_txs=2)
    pool.admit(tx(0, 1, fee=5), 0.0)
    pool.admit(tx(0, 2, fee=1), 0.0)
    assert pool.admit(tx(0, 3, fee=9), 0.0) is ACCEPTED  # displaces fee=1
    assert pool.pending() == 2
    assert pool.evicted == 1
    drained = pool.take_block(1.0)
    assert [t.fee for t in drained] == [9, 5]


def test_incoming_lowest_fee_bounces_as_pool_full():
    pool = closed_pool(max_txs=2)
    pool.admit(tx(0, 1, fee=5), 0.0)
    pool.admit(tx(0, 2, fee=5), 0.0)
    assert pool.admit(tx(0, 3, fee=1), 0.0) is POOL_FULL
    assert pool.pending() == 2
    assert pool.evicted == 0  # a bounce is a rejection, not an eviction


def test_equal_fee_overload_sheds_the_newcomer():
    pool = closed_pool(max_txs=2)
    pool.admit(tx(0, 1, fee=3), 0.0)
    pool.admit(tx(0, 2, fee=3), 0.0)
    assert pool.admit(tx(0, 3, fee=3), 0.0) is POOL_FULL
    assert tuple(pool.take_block(1.0)) == (tx(0, 1, fee=3), tx(0, 2, fee=3))


def test_evicted_transaction_may_be_resubmitted():
    pool = closed_pool(max_txs=1)
    pool.admit(tx(0, 1, fee=1), 0.0)
    pool.admit(tx(0, 2, fee=9), 0.0)  # evicts tx 1
    assert pool.admit(tx(0, 1, fee=1), 1.0) is POOL_FULL  # bounces, not DUPLICATE
    pool.take_block(2.0)
    assert pool.admit(tx(0, 1, fee=1), 3.0) is ACCEPTED


def test_pool_never_exceeds_caps_under_random_load():
    """Property: occupancy respects both caps at every step."""
    rng = RngStream(7, "pool-bounds")
    pool = closed_pool(max_txs=50, max_bytes=4_000)
    for i in range(2_000):
        pool.admit(
            tx(rng.randint(0, 9), i, payload=rng.randint(0, 64), fee=rng.randint(0, 5)),
            float(i),
        )
        assert pool.pending() <= 50
        assert pool.stats()["pending_bytes"] <= 4_000
        if rng.random() < 0.05:
            pool.take_block(float(i))


def test_byte_cap_evicts():
    pool = closed_pool(max_bytes=2 * tx(payload=16).wire_size())
    pool.admit(tx(0, 1, fee=2), 0.0)
    pool.admit(tx(0, 2, fee=3), 0.0)
    assert pool.admit(tx(0, 3, fee=4), 0.0) is ACCEPTED
    assert pool.pending() == 2
    assert pool.evicted == 1


# -- backpressure ------------------------------------------------------------


def test_watermark_backpressure_engages_and_releases():
    pool = closed_pool(max_txs=10, high_watermark=0.8, low_watermark=0.4)
    for i in range(8):
        assert pool.admit(tx(0, i), 0.0) is ACCEPTED
    # At the high watermark, fee-0 submissions are refused...
    assert pool.admit(tx(0, 100), 0.0) is POOL_FULL
    # ...but a paying transaction still displaces its way in.
    assert pool.admit(tx(0, 101, fee=5), 0.0) is ACCEPTED
    # Draining below the low watermark releases the latch (4 txs drain).
    pool.take_block(1.0)
    pool.take_block(1.0)
    assert pool.admit(tx(0, 102), 2.0) is ACCEPTED
    assert pool.stats()["backpressure_engagements"] == 1


def test_the_watermarks_need_a_gap():
    """Without one, observing the same fill twice could flip the latch, and
    admission reads it without observing."""
    with pytest.raises(ValueError, match="below the high one"):
        closed_pool(high_watermark=0.5, low_watermark=0.5)


# -- proposal drain ----------------------------------------------------------


def test_drains_by_fee_then_fifo():
    pool = closed_pool()
    pool.admit(tx(0, 1, fee=1), 0.0)
    pool.admit(tx(0, 2, fee=9), 0.0)
    pool.admit(tx(0, 3, fee=9), 0.0)
    pool.admit(tx(0, 4, fee=4), 0.0)
    assert [t.tx_id for t in pool.take_block(1.0)] == [2, 3, 4, 1]


def test_max_block_bytes_caps_the_drain():
    size = tx(payload=16).wire_size()
    pool = PriorityMempool(16, 10, open_loop=False, max_block_bytes=2 * size)
    for i in range(5):
        pool.admit(tx(0, i), 0.0)
    assert len(pool.take_block(1.0)) == 2
    assert len(pool.take_block(1.0)) == 2
    assert len(pool.take_block(1.0)) == 1


def test_outsized_transaction_cannot_wedge_the_pool():
    """A tx above max_block_bytes still ships (alone) rather than sticking."""
    pool = PriorityMempool(16, 10, open_loop=False, max_block_bytes=50)
    pool.admit(tx(0, 1, payload=500), 0.0)
    pool.admit(tx(0, 2, payload=0), 0.0)
    first = pool.take_block(1.0)
    assert [t.tx_id for t in first] == [1]
    assert [t.tx_id for t in pool.take_block(1.0)] == [2]


def test_open_loop_synthetics_respect_byte_cap():
    size = 16 + 40
    pool = PriorityMempool(16, 10, open_loop=True, max_block_bytes=3 * size)
    assert len(pool.take_block(0.0)) == 3


# -- determinism -------------------------------------------------------------


def _scripted_ops(seed):
    rng = RngStream(seed, "pool-determinism")
    ops = []
    for i in range(600):
        if rng.random() < 0.15:
            ops.append(("drain", round(float(i), 3)))
        else:
            ops.append(
                (
                    "admit",
                    rng.randint(0, 7),
                    i,
                    rng.randint(0, 32),
                    rng.randint(0, 9),
                    round(float(i) * 0.5, 3),
                )
            )
    return ops


def _run_ops(ops):
    pool = PriorityMempool(
        16, 8, open_loop=False, max_txs=64, max_bytes=6_000,
        rate_limit_per_ms=2.0, rate_burst=16.0,
    )
    blocks = []
    verdicts = []
    for op in ops:
        if op[0] == "drain":
            blocks.append(pool.take_block(op[1]))
        else:
            _, client, i, payload, fee, now = op
            verdicts.append(
                pool.admit(Transaction(client, i, payload, now, fee), now)
            )
    return blocks, verdicts, pool.stats()


def test_same_submission_order_gives_byte_identical_blocks():
    """The pool is pure: identical ops => identical drained blocks, bytes
    and all - the property that makes sim and asyncio runs agree."""
    ops = _scripted_ops(21)
    blocks_a, verdicts_a, stats_a = _run_ops(ops)
    blocks_b, verdicts_b, stats_b = _run_ops(ops)
    assert verdicts_a == verdicts_b
    assert stats_a == stats_b
    assert len(blocks_a) == len(blocks_b) and any(blocks_a)
    for left, right in zip(blocks_a, blocks_b, strict=True):
        assert left == right
        # Byte-identical on the wire, not merely equal in memory.
        enc_left = b"".join(encode_message(ClientRequest(t.client_id, t)) for t in left)
        enc_right = b"".join(encode_message(ClientRequest(t.client_id, t)) for t in right)
        assert enc_left == enc_right


def test_stats_counters_are_consistent():
    ops = _scripted_ops(3)
    _, verdicts, stats = _run_ops(ops)
    assert stats["admitted"] == sum(1 for v in verdicts if v is ACCEPTED)
    rejected = (
        stats["rejected_rate_limited"]
        + stats["rejected_pool_full"]
        + stats["rejected_duplicate"]
    )
    assert rejected == sum(1 for v in verdicts if v is not ACCEPTED)
    assert stats["pending_txs"] == stats["admitted"] - stats["drained"] - stats["evicted"]


# -- the chain talks back: purge on commit, drain around ancestors -----------


def test_purge_drops_residents_and_rejects_late_copies():
    pool = closed_pool()
    for i in range(4):
        pool.admit(tx(0, i), 0.0)
    pool.purge_committed([(0, 1), (0, 2), (7, 7)])  # (7, 7) never reached this pool
    assert pool.pending() == 2
    assert pool.stats()["purged"] == 2
    assert pool.admit(tx(0, 1), 1.0) is DUPLICATE
    assert pool.admit(tx(7, 7), 1.0) is DUPLICATE  # its request arrives after the commit
    assert [t.tx_id for t in pool.take_block(2.0)] == [0, 3]


def test_purge_releases_backpressure():
    pool = closed_pool(max_txs=10, high_watermark=0.8, low_watermark=0.5)
    for i in range(8):
        pool.admit(tx(0, i), 0.0)
    assert pool.stats()["backpressured"]
    pool.purge_committed([(0, i) for i in range(4)])
    assert not pool.stats()["backpressured"]


def test_excluded_residents_keep_their_place():
    pool = closed_pool()
    for i in range(6):
        pool.admit(tx(0, i), 0.0)
    assert [t.tx_id for t in pool.take_block(1.0, {(0, 0), (0, 2)})] == [1, 3, 4, 5]
    assert pool.pending() == 2
    pool.admit(tx(0, 6), 2.0)
    assert [t.tx_id for t in pool.take_block(3.0)] == [0, 2, 6]


def test_crash_loses_residents_and_replay_memory_but_not_counters():
    pool = PriorityMempool(16, 2, open_loop=True)
    pool.admit(tx(0, 1), 0.0)
    pool.admit(tx(0, 2), 0.0)
    first = pool.take_block(1.0)  # drains (0, 1) and (0, 2)
    pool.admit(tx(0, 3), 1.0)
    before = pool.stats()
    pool.lose_memory()
    after = pool.stats()
    assert after["pending_txs"] == 0 and after["pending_bytes"] == 0
    for counter in ("admitted", "drained", "evicted", "purged", "rejected_duplicate"):
        assert after[counter] == before[counter]
    assert pool.admit(tx(0, 1), 2.0) is ACCEPTED  # the replay memory is gone too
    assert tuple(first) == (tx(0, 1), tx(0, 2))


def test_crash_does_not_reissue_synthetic_ids():
    pool = PriorityMempool(16, 2, open_loop=True)
    assert [t.tx_id for t in pool.take_block(0.0)] == [0, 1]
    pool.lose_memory()
    assert [t.tx_id for t in pool.take_block(1.0)] == [2, 3]


def test_an_evicted_id_below_the_watermark_comes_back_its_neighbours_do_not():
    """Out-of-order, negative and evicted ids through the replay memory."""
    pool = closed_pool(max_txs=4)
    for tx_id in (2, 0, -1, 1):  # 0..2 collapse into the watermark, -1 stays ahead
        assert pool.admit(tx(7, tx_id), 0.0) is ACCEPTED
    assert pool.admit(tx(7, 3, fee=5), 0.0) is ACCEPTED  # evicts the newest cheap one: id 1
    assert pool.evicted == 1 and (7, 1) not in pool._seen
    for tx_id in (2, 0, -1, 3):
        assert pool.admit(tx(7, tx_id, fee=9), 0.0) is DUPLICATE
    assert pool.admit(tx(7, 1, fee=9), 0.0) is ACCEPTED  # evicts id -1 in turn
    assert pool.admit(tx(7, 1, fee=9), 0.0) is DUPLICATE
    assert (7, -1) not in pool._seen and pool.admit(tx(7, -1, fee=9), 0.0) is ACCEPTED
    pool.purge_committed([(7, 5), (7, -3)])  # committed elsewhere, never resident here
    assert pool.admit(tx(7, 5), 0.0) is DUPLICATE and pool.admit(tx(7, -3), 0.0) is DUPLICATE
    assert pool.admit(tx(7, 4, fee=9), 0.0) is ACCEPTED


def test_replay_memory_grows_with_resident_casualties_not_with_bounces():
    """What an overload costs the replay memory, as ``stats()`` reports it."""
    pool = closed_pool(max_txs=3)
    for tx_id, fee in ((0, 5), (1, 1), (2, 5)):
        assert pool.admit(tx(7, tx_id, fee=fee), 0.0) is ACCEPTED
    for tx_id in range(3, 50):  # spam at the lowest resident fee: every one bounces
        assert pool.admit(tx(7, tx_id, fee=1), 0.0) is POOL_FULL
    assert pool.stats()["replay_holes"] == 0 and pool._seen._next[7] == 3
    assert pool.admit(tx(7, 50, fee=9), 0.0) is ACCEPTED  # displaces id 1, between two members
    assert pool.evicted == 1 and pool.stats()["replay_holes"] == 1
    assert pool.admit(tx(7, 51, fee=9), 0.0) is ACCEPTED  # displaces id 2, the newest below 3
    assert pool.stats()["replay_holes"] == 0 and pool._seen._next[7] == 1  # stepped back over 1
    assert pool.admit(tx(7, 0, fee=9), 0.0) is DUPLICATE
    assert pool.admit(tx(7, 1, fee=9), 0.0) is ACCEPTED  # displaces id 0
    assert pool.stats()["replay_holes"] == 1 and (7, 0) not in pool._seen
    assert pool.admit(tx(7, 1, fee=9), 0.0) is DUPLICATE


class PoolModel(RuleBasedStateMachine):
    """The pool against a list-based reference, one operation at a time.

    Here backpressure is parked out of reach (``high_watermark`` above
    any reachable fill), so every verdict follows from residents, replay
    memory and the two hard caps - which the reference states in a few
    lines each; :class:`LatchedPoolModel` brings the latch into reach.
    Ids arrive in any order and may be negative, so the replay memory's
    watermark, its ids ahead and its evicted ids below all come into
    play; after every step it must hold exactly the keys a plain ``set``
    would (residents, drained, purged; never an evicted key that was not
    resubmitted, nothing from before a crash).
    """

    MAX_TXS = 8
    MAX_BYTES = 600
    BLOCK_SIZE = 4
    MAX_BLOCK_BYTES = 200
    HIGH_WATERMARK, LOW_WATERMARK = 2.0, 1.0

    keys = st.tuples(st.integers(0, 2), st.integers(-2, 13))
    ALL_KEYS = [(client, tx_id) for client in range(3) for tx_id in range(-3, 15)]

    def __init__(self):
        super().__init__()
        self.pool = PriorityMempool(
            16, self.BLOCK_SIZE, open_loop=False, max_txs=self.MAX_TXS,
            max_bytes=self.MAX_BYTES, max_block_bytes=self.MAX_BLOCK_BYTES,
            high_watermark=self.HIGH_WATERMARK, low_watermark=self.LOW_WATERMARK,
        )
        self.residents = {}  # key -> (tx, arrival)
        self.gone = set()  # drained or purged: never again
        self.backpressured = False
        self.arrivals = 0
        self.drained = 0
        self.evicted = 0
        self.purged = 0
        self.lost = 0  # residents a crash took
        self.refused = 0  # POOL_FULL verdicts

    def drain_order(self):
        return sorted(self.residents, key=lambda k: (-self.residents[k][0].fee, self.residents[k][1]))

    def observe_fill(self):
        """The latch: on at the high watermark, off again at the low one."""
        fill = max(
            len(self.residents) / self.MAX_TXS,
            sum(t.wire_size() for t, _ in self.residents.values()) / self.MAX_BYTES,
        )
        if self.backpressured and fill <= self.LOW_WATERMARK:
            self.backpressured = False
        elif not self.backpressured and fill >= self.HIGH_WATERMARK:
            self.backpressured = True

    @rule(key=keys, payload=st.sampled_from([0, 16, 64]), fee=st.integers(0, 3))
    def admit(self, key, payload, fee):
        candidate = tx(key[0], key[1], payload, fee)
        verdict = self.pool.admit(candidate, 0.0)
        if key in self.residents or key in self.gone:
            assert verdict is DUPLICATE
            return
        lowest = min((t.fee for t, _ in self.residents.values()), default=0)
        if self.backpressured and fee <= lowest:
            assert verdict is POOL_FULL  # only a higher bid gets in under backpressure
            self.refused += 1
            return
        self.residents[key] = (candidate, self.arrivals)
        self.arrivals += 1
        bounced = False
        while len(self.residents) > self.MAX_TXS or (
            sum(t.wire_size() for t, _ in self.residents.values()) > self.MAX_BYTES
        ):
            victim = min(
                self.residents, key=lambda k: (self.residents[k][0].fee, -self.residents[k][1])
            )
            del self.residents[victim]  # evicted keys may come back
            if victim == key:
                bounced = True
            else:
                self.evicted += 1
        self.observe_fill()
        self.refused += bounced
        assert verdict is (POOL_FULL if bounced else ACCEPTED)

    @rule(data=st.data(), strangers=st.sets(keys, max_size=3))
    def take_block_around(self, data, strangers):
        held = sorted(self.residents)
        exclude = strangers | set(data.draw(st.lists(st.sampled_from(held), unique=True))
                                  if held else [])
        expected, used = [], 0
        for key in self.drain_order():
            candidate = self.residents[key][0]
            if key in exclude:
                continue  # stays resident, keeps its place
            if len(expected) == self.BLOCK_SIZE or (
                expected and used + candidate.wire_size() > self.MAX_BLOCK_BYTES
            ):
                break  # the byte-capped drain stop: nothing cheaper jumps the queue
            expected.append(candidate)
            used += candidate.wire_size()
        assert tuple(self.pool.take_block(1.0, exclude)) == tuple(expected)
        for candidate in expected:
            del self.residents[candidate.key]
            self.gone.add(candidate.key)
        self.drained += len(expected)
        self.observe_fill()

    @rule(committed=st.sets(keys, max_size=6))
    def purge(self, committed):
        self.pool.purge_committed(sorted(committed))
        for key in committed:
            if self.residents.pop(key, None) is not None:
                self.purged += 1
            self.gone.add(key)
        self.observe_fill()

    @rule()
    def lose_memory(self):
        self.pool.lose_memory()
        self.lost += len(self.residents)
        self.residents.clear()
        self.gone.clear()  # a restarted replica admits any key again
        self.observe_fill()

    @invariant()
    def replay_memory_is_exactly_the_model_set(self):
        remembered = set(self.residents) | self.gone
        for key in self.ALL_KEYS:
            assert (key in self.pool._seen) == (key in remembered), key

    @invariant()
    def occupancy_matches_the_residents(self):
        stats = self.pool.stats()
        assert self.pool.pending() == stats["pending_txs"] == len(self.residents)
        assert stats["pending_bytes"] == sum(
            t.wire_size() for t, _ in self.residents.values()
        )
        assert (stats["drained"], stats["evicted"], stats["purged"]) == (
            self.drained, self.evicted, self.purged
        )
        assert stats["admitted"] == (
            len(self.residents) + self.drained + self.evicted + self.purged + self.lost
        )
        assert stats["rejected_pool_full"] == self.refused
        assert stats["backpressured"] is self.backpressured

    def teardown(self):
        # Whatever was passed over is still there, in the original order.
        remaining = [self.residents[key][0] for key in self.drain_order()]
        drained = []
        while self.pool.pending():
            drained.extend(self.pool.take_block(2.0))
        assert drained == remaining


class LatchedPoolModel(PoolModel):
    """:class:`PoolModel` with backpressure in reach: six residents or
    450 bytes engage it, four or 300 release it."""

    HIGH_WATERMARK, LOW_WATERMARK = 0.75, 0.5


TestPoolModel = PoolModel.TestCase
# A failure is reported as found, unshrunk: shrinking one of these 40-step
# programs (every candidate replays the teardown drain) ran for minutes at
# hundreds of MB, where a found failure prints its steps at once.  A passing
# run never reaches the shrink phase, so it is unchanged.
TestPoolModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    phases=[phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)],
)
TestLatchedPoolModel = LatchedPoolModel.TestCase
TestLatchedPoolModel.settings = TestPoolModel.settings
