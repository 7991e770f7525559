"""The one rule that bounds the library's hot-path memos.

A memo here is a plain ``dict`` whose values are a pure function of their
keys (a verification verdict, an encoding, a digest), so dropping an
entry only costs a recomputation, never another answer; the rate
limiter's token buckets are the one map of state it also bounds, where a
dropped bucket restarts its sender with a full burst.

:func:`remember` sheds the oldest entries (dicts keep insertion order)
down to half the cap, rather than clearing: a wholesale clear is a
latency cliff - the next quorum certificate, or the next block of a live
chain, recomputes everything at once - while the newest half is what the
hot path is about to ask for again.
"""

from __future__ import annotations

from itertools import islice
from typing import TypeVar

K = TypeVar("K")
V = TypeVar("V")


def remember(memo: dict[K, V], key: K, value: V, cap: int) -> V:
    """Store ``memo[key] = value`` and return ``value``; a full ``memo``
    (``cap`` entries or more) first keeps only its newest ``cap // 2``."""
    if len(memo) >= cap:
        for stale in list(islice(memo, len(memo) - cap // 2)):
            del memo[stale]
    memo[key] = value
    return value
