"""Unit tests for stats.histogram."""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatsError
from repro.stats.histogram import EquiWidthHistogram, FrequencyHistogram
from repro.storage.catalog import ColumnStats


class TestEquiWidthBasics:
    def test_empty_raises(self):
        with pytest.raises(StatsError):
            EquiWidthHistogram.build([])

    def test_all_nulls_raises(self):
        with pytest.raises(StatsError):
            EquiWidthHistogram.build([None, None])

    def test_single_value(self):
        hist = EquiWidthHistogram.build([5, 5, 5])
        assert hist.selectivity_eq(5) == pytest.approx(1.0)
        assert hist.selectivity_eq(6) == 0.0

    def test_uniform_equality(self):
        hist = EquiWidthHistogram.build(list(range(100)), num_buckets=10)
        assert hist.selectivity_eq(50) == pytest.approx(0.01, abs=0.005)

    def test_lt_midpoint(self):
        hist = EquiWidthHistogram.build(list(range(1000)), num_buckets=20)
        assert hist.selectivity_lt(500) == pytest.approx(0.5, abs=0.03)

    def test_lt_below_min(self):
        hist = EquiWidthHistogram.build(list(range(10, 20)))
        assert hist.selectivity_lt(5) == 0.0

    def test_lt_above_max(self):
        hist = EquiWidthHistogram.build(list(range(10, 20)))
        assert hist.selectivity_lt(100) == 1.0

    def test_gt_complements_lt(self):
        hist = EquiWidthHistogram.build(list(range(100)))
        total = hist.selectivity_lt(30, inclusive=True) + hist.selectivity_gt(30)
        assert total == pytest.approx(1.0, abs=0.02)

    def test_range(self):
        hist = EquiWidthHistogram.build(list(range(100)), num_buckets=10)
        sel = hist.selectivity_range(20, 40)
        assert sel == pytest.approx(0.21, abs=0.05)

    def test_range_full(self):
        hist = EquiWidthHistogram.build(list(range(100)))
        assert hist.selectivity_range(None, None) == pytest.approx(1.0)

    def test_skewed_distribution(self):
        values = [1] * 90 + list(range(2, 12))
        hist = EquiWidthHistogram.build(values, num_buckets=10)
        assert hist.selectivity_eq(1) > 0.5


class TestEquiWidthProperties:
    @given(st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=300),
           st.integers(-10_000, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_selectivities_in_unit_interval(self, values, probe):
        hist = EquiWidthHistogram.build(values)
        for sel in (
            hist.selectivity_eq(probe),
            hist.selectivity_lt(probe),
            hist.selectivity_gt(probe),
            hist.selectivity_range(probe, probe + 10),
        ):
            assert 0.0 <= sel <= 1.0

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_lt_is_monotone(self, values):
        hist = EquiWidthHistogram.build(values)
        points = sorted({min(values) - 1, max(values) + 1,
                         (min(values) + max(values)) // 2})
        sels = [hist.selectivity_lt(p) for p in points]
        assert sels == sorted(sels)


class TestFrequencyHistogram:
    def test_exact_equality(self):
        hist = FrequencyHistogram.build(["a", "a", "b", None])
        assert hist.selectivity_eq("a") == pytest.approx(2 / 3)
        assert hist.selectivity_eq("b") == pytest.approx(1 / 3)
        assert hist.selectivity_eq("z") == 0.0

    def test_num_distinct(self):
        hist = FrequencyHistogram.build([1, 2, 2, 3])
        assert hist.num_distinct == 3

    def test_empty_returns_none(self):
        assert FrequencyHistogram.build([]) is None
        assert FrequencyHistogram.build([None]) is None

    def test_too_many_distinct_returns_none(self):
        values = list(range(FrequencyHistogram.MAX_TRACKED + 10))
        assert FrequencyHistogram.build(values) is None


def _walk(hist, op, value):
    """Range count the way it was computed before the sorted keys: every
    tracked value compared with the literal."""
    compare = {"<": operator.lt, "<=": operator.le,
               ">": operator.gt, ">=": operator.ge}[op]
    return sum(count for tracked, count in hist.counts.items()
               if compare(tracked, value))


_NAN = float("nan")
_rng = random.Random(52)
RANGE_COLUMNS = {
    "int": [_rng.randint(-40, 40) for _ in range(300)],
    "float": [_rng.uniform(-5.0, 5.0) for _ in range(200)] + [0.5] * 30,
    "mixed": [_rng.randint(0, 20) for _ in range(100)]
    + [_rng.randint(0, 40) / 2 for _ in range(100)],
    "bool": [True] * 7 + [False] * 3,
    "str": [_rng.choice(["a", "ab", "b", "ba", "", "z"]) for _ in range(90)],
    "nan": [1.0, 2.0, _NAN, 2.0, 3.5],
    "unsortable": [1, 2, "two", 3],
}
PROBES = [-41, -1, 0, 0.5, 1, 1.5, 2, 2.0, 7, 40, 41, True, False,
          _NAN, float("inf"), float("-inf"), "", "a", "b", "bb", "zz"]


class TestRangeCount:
    """``count_cmp`` bisects sorted keys where the walk compared every
    tracked value: the same integer, so the same selectivity float."""

    @pytest.mark.parametrize("column", sorted(RANGE_COLUMNS))
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_matches_the_walk(self, column, op):
        hist = FrequencyHistogram.build(RANGE_COLUMNS[column])
        for value in PROBES:
            try:
                expected = _walk(hist, op, value)
            except TypeError:
                with pytest.raises(TypeError):
                    hist.count_cmp(op, value)
                continue
            assert hist.count_cmp(op, value) == expected, (column, value)

    def test_column_stats_keep_the_incomparable_fall_through(self):
        stats = ColumnStats(num_distinct=3.0,
                            frequencies=FrequencyHistogram.build([1, 2, 3]))
        assert stats.selectivity_cmp(">", 1) == 2 / 3
        assert stats.selectivity_cmp("<", "x") == 1 / 3
