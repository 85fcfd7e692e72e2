"""Secondary indexes over stored tables.

Two index kinds are provided, matching what the cost model distinguishes:

- :class:`HashIndex` — O(1) equality probes, no ordered access.
- :class:`SortedIndex` — bisect-based equality and range probes; a scan in
  key order yields the "interesting order" the optimizer tracks.

Indexes map key values to *row positions* in the owning table, so they stay
valid as long as the table is append-only (the engine's tables are).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, List, Sequence, Tuple

from ..errors import CatalogError, ExecutionError


class Index:
    """Base class: an index on one column of a table."""

    kind = "abstract"
    #: comparison operators :meth:`search` answers — the index half of
    #: the sargable rule (:func:`repro.expr.nodes.sargable`)
    ops: Tuple[str, ...] = ("=",)

    def __init__(self, column_name: str):
        self.column_name = column_name

    def insert(self, key: Any, position: int) -> None:
        raise NotImplementedError

    def probe(self, key: Any) -> Sequence[int]:
        """Row positions whose key equals ``key``."""
        raise NotImplementedError

    def search(self, op: str, value: Any) -> Sequence[int]:
        """Row positions whose key satisfies ``key <op> value`` with
        SQL comparison semantics, whatever the index kind: NULL matches
        nothing, ``=`` against a value the keys cannot be ordered with
        matches nothing, and a range against one raises the typed
        error a scan's comparison raises."""
        if op not in self.ops:
            raise ExecutionError("%s index on %s cannot answer %r"
                                 % (self.kind, self.column_name, op))
        if value is None:
            return ()
        try:
            return self.probe(value) if op == "=" else self._range(op, value)
        except TypeError:
            if op == "=":
                return ()
            raise ExecutionError(
                "cannot compare %s keys with %r" % (self.column_name, value))

    def remove_from(self, position: int) -> None:
        """Drop every entry whose row position is >= ``position``.

        Tables are append-only, so undoing an insert batch truncates
        the row list back to its old length; this is the matching index
        operation (the removed positions are exactly the tail).
        """
        raise NotImplementedError

    def bulk_load(self, keys_positions: Iterable[Tuple[Any, int]]) -> None:
        for key, pos in keys_positions:
            self.insert(key, pos)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.column_name)


class HashIndex(Index):
    """Equality-only index backed by a dict of key -> positions."""

    kind = "hash"

    def __init__(self, column_name: str):
        super().__init__(column_name)
        self._buckets = {}

    def insert(self, key: Any, position: int) -> None:
        self._buckets.setdefault(key, []).append(position)

    def bulk_load(self, keys_positions: Iterable[Tuple[Any, int]]) -> None:
        self._buckets = {}
        for key, position in keys_positions:
            self.insert(key, position)

    def probe(self, key: Any) -> Sequence[int]:
        return self._buckets.get(key, ())

    def remove_from(self, position: int) -> None:
        empty = []
        for key, positions in self._buckets.items():
            positions[:] = [p for p in positions if p < position]
            if not positions:
                empty.append(key)
        for key in empty:
            del self._buckets[key]

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())


class SortedIndex(Index):
    """Ordered index backed by parallel sorted key/position lists.

    Supports equality probes, range probes, and full in-order iteration.
    Inserts keep the lists sorted (bisect.insort semantics); bulk loading
    appends then sorts once.
    """

    kind = "sorted"
    ops = ("=", "<", "<=", ">", ">=")

    def __init__(self, column_name: str):
        super().__init__(column_name)
        self._keys: List[Any] = []
        self._positions: List[int] = []

    def insert(self, key: Any, position: int) -> None:
        if key is None:
            raise CatalogError("cannot index NULL key on %r" % self.column_name)
        at = bisect.bisect_right(self._keys, key)
        self._keys.insert(at, key)
        self._positions.insert(at, position)

    def bulk_load(self, keys_positions: Iterable[Tuple[Any, int]]) -> None:
        pairs = sorted(keys_positions, key=lambda kp: kp[0])
        self._keys = [k for k, _ in pairs]
        self._positions = [p for _, p in pairs]

    def probe(self, key: Any) -> Sequence[int]:
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._positions[lo:hi]

    def probe_range(self, low: Any, high: Any, *, low_inclusive: bool = True,
                    high_inclusive: bool = True) -> Sequence[int]:
        """Row positions with key in the given range; None bounds are open."""
        if low is None:
            lo = 0
        elif low_inclusive:
            lo = bisect.bisect_left(self._keys, low)
        else:
            lo = bisect.bisect_right(self._keys, low)
        if high is None:
            hi = len(self._keys)
        elif high_inclusive:
            hi = bisect.bisect_right(self._keys, high)
        else:
            hi = bisect.bisect_left(self._keys, high)
        return self._positions[lo:hi]

    def _range(self, op: str, value: Any) -> Sequence[int]:
        if op in ("<", "<="):
            return self.probe_range(None, value, high_inclusive=op == "<=")
        return self.probe_range(value, None, low_inclusive=op == ">=")

    def remove_from(self, position: int) -> None:
        keep = [i for i, p in enumerate(self._positions) if p < position]
        self._keys = [self._keys[i] for i in keep]
        self._positions = [self._positions[i] for i in keep]

    def in_order(self) -> Iterator[int]:
        """All row positions in ascending key order."""
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._keys)
