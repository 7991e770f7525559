"""``PriorityMempool.purge_committed`` adds to the replay memory only the
keys of non-residents, on the invariant that every resident's key is in
it already; this pins the pool to the purge that re-added every key.

:class:`ReferencePool` is that earlier purge, kept here as the model.
Over random call sequences through ``admit`` (fees, both caps, token
buckets, the backpressure latch, evictions, purges, drains and crashes)
both pools must give the same verdicts, counters, ``stats()``
(``replay_holes`` included), replay memory and drained columns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mempool import Transaction
from repro.mempool.pool import PriorityMempool


class ReferencePool(PriorityMempool):
    """The purge as it was: every committed key re-enters the replay memory."""

    def purge_committed(self, keys):
        if not keys:
            return
        for key in keys:
            tx = self._residents.get(key)
            if tx is not None:
                self._remove(key, tx)
                self.purged += 1
            self._seen.add(key)
        self.watermark.update(self._fill())


KEYS = st.tuples(st.integers(0, 3), st.integers(-2, 15))
ALL_KEYS = [(client, tx_id) for client in range(4) for tx_id in range(-3, 17)]

POOLS = st.fixed_dictionaries({
    "max_txs": st.integers(2, 10),
    "max_bytes": st.sampled_from([0, 150, 300, 700]),
    "max_block_bytes": st.sampled_from([0, 120, 400]),
    "watermarks": st.sampled_from([(0.9, 0.7), (0.5, 0.25), (1.0, 0.2), (2.0, 1.0)]),
    "rate": st.sampled_from([(0.0, 32.0), (0.5, 2.0), (2.0, 1.0)]),
    "open_loop": st.booleans(),
})

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), KEYS, st.sampled_from([0, 16, 64]), st.integers(0, 3)),
        st.tuples(st.just("take"), st.sets(KEYS, max_size=4)),
        st.tuples(st.just("purge"), st.lists(KEYS, max_size=6)),
        st.tuples(st.just("lose")),
        st.tuples(st.just("wait"), st.sampled_from([0.5, 2.0, 10.0])),
    ),
    max_size=60,
)


def _pool(cls, config):
    high, low = config["watermarks"]
    rate, burst = config["rate"]
    return cls(
        16, 4, config["open_loop"], max_txs=config["max_txs"],
        max_bytes=config["max_bytes"], max_block_bytes=config["max_block_bytes"],
        high_watermark=high, low_watermark=low, rate_limit_per_ms=rate, rate_burst=burst,
    )


def _state(pool):
    return (
        pool.stats(),
        [key in pool._seen for key in ALL_KEYS],
        list(pool.resident_keys()),
        pool._fees,
        pool.watermark.engagements,
    )


@given(config=POOLS, ops=OPS)
@settings(max_examples=300, deadline=None)
def test_the_pool_decides_as_when_every_purged_key_was_re_added(config, ops):
    pool, reference = _pool(PriorityMempool, config), _pool(ReferencePool, config)
    now = 0.0
    for op in ops:
        if op[0] == "admit":
            (client, tx_id), payload, fee = op[1:]
            tx = Transaction(client, tx_id, payload, now, fee)
            assert pool.admit(tx, now) is reference.admit(tx, now)
        elif op[0] == "take":
            taken = pool.take_block(now, op[1])
            assert taken.packed == reference.take_block(now, op[1]).packed
        elif op[0] == "purge":
            pool.purge_committed(op[1])
            reference.purge_committed(op[1])
        elif op[0] == "lose":
            pool.lose_memory()
            reference.lose_memory()
        else:
            now += op[1]
        assert _state(pool) == _state(reference)
