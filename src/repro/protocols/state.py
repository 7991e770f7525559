"""Declared replica state: every attribute in exactly one of four classes.

Each class says in its body what the attributes it adds *are*, once
along the MRO: ``VOLATILE`` - host memory a crash loses, by name with
its starting value (a type is called, a function empties the object in
place, anything else is the value); ``SEALED`` - the Checker and the
seal service that keeps its snapshots rollback-proof; ``DURABLE`` - what
the host keeps across a restart (chain, certificates, checkpoint,
views), by the wire kind its durable record carries it as; ``WIRING`` -
identity, configuration, keys, components, seeded streams and run
counters.  A replica's ``COLLECTORS`` and ``VIEW_SETS``
are volatile and its ``COMPONENTS`` wiring without a second listing.
:func:`reset_volatile` is the one place a volatile attribute's start is
written (``docs/architecture.md`` tabulates the declarations).
"""

from __future__ import annotations

from typing import Any

from repro.runtime.machine import MachineTimer


def discard_views_below(entries: "set[Any] | dict[Any, Any]", view: int) -> None:
    """Drop the entries of a view-keyed set or dict that lie below ``view``."""
    # Keys are either a view number or a tuple whose first element is
    # one; anything else is left alone.
    for key in list(entries):
        key_view = key[0] if isinstance(key, tuple) and key else key
        if isinstance(key_view, int) and key_view < view:
            if isinstance(entries, set):
                entries.discard(key)
            else:
                del entries[key]


class QuorumCollector:
    """Collects deduplicated items per key until a threshold is reached.

    ``add`` returns the full item list exactly once - on the call that
    reaches the threshold - and ``None`` before and after, which is how
    leaders act exactly once per (view, phase) quorum.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self._items: dict[Any, list[Any]] = {}
        self._dedup: dict[Any, set[Any]] = {}
        self._done: set[Any] = set()

    def add(self, key: Any, item: Any, dedup_id: Any) -> list[Any] | None:
        if key in self._done:
            return None
        seen = self._dedup.setdefault(key, set())
        if dedup_id in seen:
            return None
        seen.add(dedup_id)
        items = self._items.setdefault(key, [])
        items.append(item)
        if len(items) == self.threshold:
            self._done.add(key)
            return list(items)
        return None

    def count(self, key: Any) -> int:
        return len(self._items.get(key, ()))

    def reached(self, key: Any) -> list[Any] | None:
        """The quorum collected for ``key``, once (and ever after) complete."""
        return list(self._items[key]) if key in self._done else None

    def pending_keys(self) -> int:
        """Number of keys currently holding state (for GC assertions)."""
        return len(self._items) + len(self._done)

    def discard_before_view(self, view: int) -> None:
        """Garbage-collect state for views below ``view``."""
        for entries in (self._items, self._dedup, self._done):
            discard_views_below(entries, view)


def reset_volatile(owner: Any) -> None:
    """Put every ``VOLATILE`` attribute of ``owner`` back at its declared start."""
    for klass in reversed(type(owner).__mro__):
        for name, start in vars(klass).get("VOLATILE", {}).items():
            current = getattr(owner, name, None)
            if isinstance(current, MachineTimer):
                current.cancel()  # what a crash loses must not fire after it
            if isinstance(start, type):
                setattr(owner, name, start())
            elif callable(start):
                start(current)
            else:
                setattr(owner, name, start)
    for name in getattr(owner, "COLLECTORS", ()):
        setattr(owner, name, QuorumCollector(owner.quorum))
    for name in getattr(owner, "VIEW_SETS", ()):
        setattr(owner, name, set())
