"""Column histograms used for selectivity estimation.

Two forms are provided:

- :class:`EquiWidthHistogram` for numeric columns — fixed-width buckets,
  each tracking a row count and a distinct-value estimate; range and
  equality selectivities interpolate within buckets (uniformity inside a
  bucket, the classic System-R assumption).
- :class:`FrequencyHistogram` for low-cardinality columns — exact value
  counts, giving exact equality selectivities.

Histograms are immutable once built; the catalog rebuilds them from data
via ``analyze``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import StatsError


@dataclass(frozen=True)
class Bucket:
    """One equi-width bucket: [low, high) except the last, which is closed."""

    low: float
    high: float
    count: int
    distinct: int


class EquiWidthHistogram:
    """Equi-width histogram over a numeric column."""

    def __init__(self, buckets: Sequence[Bucket], total: int):
        if not buckets:
            raise StatsError("histogram needs at least one bucket")
        self.buckets: List[Bucket] = list(buckets)
        self.total = total
        self.low = buckets[0].low
        self.high = buckets[-1].high

    @classmethod
    def build(cls, values: Iterable, num_buckets: int = 20) -> "EquiWidthHistogram":
        """Build from raw column values, ignoring NULLs."""
        data = sorted(v for v in values if v is not None)
        if not data:
            raise StatsError("cannot build a histogram from no values")
        low, high = float(data[0]), float(data[-1])
        if low == high:
            buckets = [Bucket(low, high, len(data), 1)]
            return cls(buckets, len(data))
        num_buckets = max(1, min(num_buckets, len(data)))
        width = (high - low) / num_buckets
        counts = [0] * num_buckets
        distincts = [set() for _ in range(num_buckets)]
        for value in data:
            slot = min(int((float(value) - low) / width), num_buckets - 1)
            counts[slot] += 1
            distincts[slot].add(value)
        buckets = [
            Bucket(low + i * width, low + (i + 1) * width, counts[i],
                   len(distincts[i]))
            for i in range(num_buckets)
        ]
        return cls(buckets, len(data))

    # ------------------------------------------------------------ selectivity

    def selectivity_eq(self, value) -> float:
        """Fraction of rows equal to ``value`` (uniform within the bucket)."""
        if value is None or self.total == 0:
            return 0.0
        value = float(value)
        bucket = self._bucket_for(value)
        if bucket is None or bucket.count == 0:
            return 0.0
        per_value = bucket.count / max(1, bucket.distinct)
        return min(1.0, per_value / self.total)

    def selectivity_lt(self, value, inclusive: bool = False) -> float:
        """Fraction of rows with column < value (or <= if inclusive)."""
        if value is None or self.total == 0:
            return 0.0
        value = float(value)
        if value < self.low:
            return 0.0
        if value > self.high or (inclusive and value == self.high):
            return 1.0
        covered = 0.0
        for bucket in self.buckets:
            if bucket.high <= value:
                covered += bucket.count
            elif bucket.low < value:
                span = bucket.high - bucket.low
                frac = (value - bucket.low) / span if span > 0 else 0.5
                covered += bucket.count * frac
        sel = covered / self.total
        if inclusive:
            sel = min(1.0, sel + self.selectivity_eq(value))
        return max(0.0, min(1.0, sel))

    def selectivity_gt(self, value, inclusive: bool = False) -> float:
        return max(0.0, 1.0 - self.selectivity_lt(value, inclusive=not inclusive))

    def selectivity_range(self, low, high, *, low_inclusive: bool = True,
                          high_inclusive: bool = True) -> float:
        hi_sel = (
            1.0 if high is None
            else self.selectivity_lt(high, inclusive=high_inclusive)
        )
        lo_sel = (
            0.0 if low is None
            else self.selectivity_lt(low, inclusive=not low_inclusive)
        )
        return max(0.0, min(1.0, hi_sel - lo_sel))

    def _bucket_for(self, value: float) -> Optional[Bucket]:
        if value < self.low or value > self.high:
            return None
        for bucket in self.buckets:
            if bucket.low <= value < bucket.high:
                return bucket
        return self.buckets[-1] if value == self.high else None

    def __repr__(self) -> str:
        return "EquiWidthHistogram(%d buckets, %d rows, [%g, %g])" % (
            len(self.buckets), self.total, self.low, self.high,
        )


class EquiDepthHistogram(EquiWidthHistogram):
    """Equi-depth (equi-height) histogram: bucket boundaries at
    quantiles, so each bucket holds ~the same number of rows.

    Far more robust than equi-width under skew: a heavy value gets its
    own narrow bucket instead of dragging neighbours along. Shares the
    selectivity machinery with :class:`EquiWidthHistogram` (the formulas
    only assume per-bucket uniformity, which equi-depth satisfies
    better).
    """

    @classmethod
    def build(cls, values: Iterable, num_buckets: int = 20) -> "EquiDepthHistogram":
        data = sorted(v for v in values if v is not None)
        if not data:
            raise StatsError("cannot build a histogram from no values")
        low, high = float(data[0]), float(data[-1])
        if low == high:
            return cls([Bucket(low, high, len(data), 1)], len(data))
        num_buckets = max(1, min(num_buckets, len(data)))
        per_bucket = len(data) / num_buckets
        buckets: List[Bucket] = []
        start = 0
        for i in range(num_buckets):
            end = (len(data) if i == num_buckets - 1
                   else int(round((i + 1) * per_bucket)))
            end = max(end, start + 1)
            chunk = data[start:end]
            if not chunk:
                continue
            bucket_low = float(chunk[0]) if not buckets else buckets[-1].high
            bucket_high = (high if i == num_buckets - 1
                           else float(data[min(end, len(data) - 1)]))
            if bucket_high < bucket_low:
                bucket_high = bucket_low
            buckets.append(Bucket(bucket_low, bucket_high, len(chunk),
                                  len(set(chunk))))
            start = end
        # ensure the span covers [low, high] exactly
        first = buckets[0]
        buckets[0] = Bucket(low, first.high, first.count, first.distinct)
        return cls(buckets, len(data))

    def _bucket_for(self, value: float):
        # Buckets may have zero width (a heavy value); prefer the
        # narrowest bucket containing the value.
        if value < self.low or value > self.high:
            return None
        candidates = [
            b for b in self.buckets if b.low <= value <= b.high
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda b: b.high - b.low)


class FrequencyHistogram:
    """Exact value-frequency histogram for low-cardinality columns."""

    MAX_TRACKED = 512

    def __init__(self, counts: dict, total: int):
        self.counts = dict(counts)
        self.total = total

    @classmethod
    def build(cls, values: Iterable) -> Optional["FrequencyHistogram"]:
        """Build if the column has few enough distinct values, else None."""
        counts = {}
        total = 0
        for value in values:
            if value is None:
                continue
            total += 1
            counts[value] = counts.get(value, 0) + 1
            if len(counts) > cls.MAX_TRACKED:
                return None
        if total == 0:
            return None
        return cls(counts, total)

    def selectivity_eq(self, value) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(value, 0) / self.total

    def count_cmp(self, op: str, value) -> int:
        """Rows whose tracked value satisfies ``tracked <op> value`` for a
        range operator: one bisection of the sorted keys. Raises
        ``TypeError`` when ``value`` cannot be ordered with the keys."""
        keys, running = self._order
        # bisect before the NaN check, so an incomparable literal raises
        if op in ("<", ">="):
            below = running[bisect.bisect_left(keys, value)]
        else:
            below = running[bisect.bisect_right(keys, value)]
        if value != value:
            return 0  # no comparison with a NaN literal holds
        return below if op in ("<", "<=") else running[-1] - below

    @functools.cached_property
    def _order(self) -> Tuple[list, List[int]]:
        """The keys sorted and the running count before each position,
        built on first use (``analyze`` replaces a histogram, never
        changes one). A NaN key satisfies no comparison and is left out;
        the other keys share their column's type, so they sort."""
        keys = sorted(key for key in self.counts if key == key)
        running = [0]
        running.extend(itertools.accumulate(self.counts[k] for k in keys))
        return keys, running

    @property
    def num_distinct(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return "FrequencyHistogram(%d values, %d rows)" % (
            len(self.counts), self.total,
        )
