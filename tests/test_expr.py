"""Unit + property tests for the expression language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindError, ExecutionError
from repro.expr.aggregates import Accumulator, AggregateSpec
from repro.expr.nodes import (
    Arithmetic,
    BooleanExpr,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    RuntimeMembership,
    conjoin,
    conjuncts,
    is_equijoin,
)
from repro.storage.schema import DataType, Schema

SCHEMA = Schema.of(("a", DataType.INT), ("b", DataType.INT),
                   ("s", DataType.STR))


def run(expr: Expr, row):
    return expr.resolve(SCHEMA).eval(row)


class TestBasicEval:
    def test_column_and_literal(self):
        assert run(ColumnRef("b"), (1, 2, "x")) == 2
        assert run(Literal(5), (0, 0, "")) == 5

    def test_comparisons(self):
        expr = Comparison("<", ColumnRef("a"), ColumnRef("b"))
        assert run(expr, (1, 2, "")) is True
        assert run(expr, (2, 1, "")) is False

    def test_all_comparison_ops(self):
        cases = {"=": False, "!=": True, "<": True, "<=": True,
                 ">": False, ">=": False}
        for op, expected in cases.items():
            expr = Comparison(op, Literal(1), Literal(2))
            assert run(expr, ()) is expected, op

    def test_arithmetic(self):
        expr = Arithmetic("+", ColumnRef("a"),
                          Arithmetic("*", ColumnRef("b"), Literal(10)))
        assert run(expr, (1, 2, "")) == 21

    def test_division_is_float(self):
        assert run(Arithmetic("/", Literal(7), Literal(2)), ()) == 3.5

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            run(Arithmetic("/", Literal(1), Literal(0)), ())

    def test_unresolved_column_raises(self):
        with pytest.raises(ExecutionError):
            ColumnRef("a").eval((1,))

    def test_unknown_operator_rejected(self):
        with pytest.raises(BindError):
            Comparison("~~", Literal(1), Literal(2))
        with pytest.raises(BindError):
            Arithmetic("%", Literal(1), Literal(2))


class TestThreeValuedLogic:
    def test_null_comparison_is_unknown(self):
        expr = Comparison("=", ColumnRef("a"), Literal(1))
        assert run(expr, (None, 0, "")) is None

    def test_and_false_dominates_null(self):
        expr = BooleanExpr("AND", [
            Comparison("=", ColumnRef("a"), Literal(1)),
            Comparison("=", ColumnRef("b"), Literal(1)),
        ])
        assert run(expr, (None, 2, "")) is False  # second arg is False

    def test_and_null_when_undetermined(self):
        expr = BooleanExpr("AND", [
            Comparison("=", ColumnRef("a"), Literal(1)),
            Comparison("=", ColumnRef("b"), Literal(1)),
        ])
        assert run(expr, (None, 1, "")) is None

    def test_or_true_dominates_null(self):
        expr = BooleanExpr("OR", [
            Comparison("=", ColumnRef("a"), Literal(1)),
            Comparison("=", ColumnRef("b"), Literal(1)),
        ])
        assert run(expr, (None, 1, "")) is True

    def test_not_null_is_null(self):
        expr = BooleanExpr("NOT", [Comparison("=", ColumnRef("a"),
                                              Literal(1))])
        assert run(expr, (None, 0, "")) is None

    def test_null_arithmetic_propagates(self):
        expr = Arithmetic("+", ColumnRef("a"), Literal(1))
        assert run(expr, (None, 0, "")) is None


class TestTransforms:
    def test_rename_columns(self):
        expr = Comparison("=", ColumnRef("x"), ColumnRef("y"))
        renamed = expr.rename_columns({"x": "T.x"})
        assert renamed.display() == "T.x = y"

    def test_flipped(self):
        expr = Comparison("<", ColumnRef("a"), ColumnRef("b"))
        assert expr.flipped().display() == "b > a"

    def test_columns_collects_all(self):
        expr = BooleanExpr("AND", [
            Comparison("=", ColumnRef("a"), ColumnRef("b")),
            Comparison(">", ColumnRef("s"), Literal("x")),
        ])
        assert expr.columns() == {"a", "b", "s"}

    def test_display_roundtrip_equality(self):
        e1 = Comparison("=", ColumnRef("a"), Literal(1))
        e2 = Comparison("=", ColumnRef("a"), Literal(1))
        assert e1 == e2
        assert hash(e1) == hash(e2)

    def test_conjuncts_flattens_nested_ands(self):
        expr = BooleanExpr("AND", [
            Comparison("=", ColumnRef("a"), Literal(1)),
            BooleanExpr("AND", [
                Comparison("=", ColumnRef("b"), Literal(2)),
                Comparison("=", ColumnRef("s"), Literal("x")),
            ]),
        ])
        assert len(conjuncts(expr)) == 3

    def test_conjoin_inverse_of_conjuncts(self):
        parts = [Comparison("=", ColumnRef("a"), Literal(i))
                 for i in range(3)]
        assert conjuncts(conjoin(parts)) == parts

    def test_conjoin_empty_is_none(self):
        assert conjoin([]) is None

    def test_is_equijoin(self):
        assert is_equijoin(Comparison("=", ColumnRef("a"), ColumnRef("b")))
        assert not is_equijoin(Comparison("<", ColumnRef("a"),
                                          ColumnRef("b")))
        assert not is_equijoin(Comparison("=", ColumnRef("a"), Literal(1)))


class TestRuntimeMembership:
    def test_eval_against_set(self):
        expr = RuntimeMembership("p", [ColumnRef("a")]).resolve(SCHEMA)
        expr.filter_set = {1, 2}
        assert expr.eval((1, 0, "")) is True
        assert expr.eval((9, 0, "")) is False

    def test_multi_column_key(self):
        expr = RuntimeMembership(
            "p", [ColumnRef("a"), ColumnRef("b")]
        ).resolve(SCHEMA)
        expr.filter_set = {(1, 2)}
        assert expr.eval((1, 2, "")) is True
        assert expr.eval((2, 1, "")) is False

    def test_unbound_raises(self):
        expr = RuntimeMembership("p", [ColumnRef("a")]).resolve(SCHEMA)
        with pytest.raises(ExecutionError):
            expr.eval((1, 0, ""))

    def test_rename_preserves_param(self):
        expr = RuntimeMembership("p", [ColumnRef("a")])
        renamed = expr.rename_columns({"a": "T.a"})
        assert renamed.param_id == "p"
        assert renamed.columns() == {"T.a"}


class TestComparisonProperties:
    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_matches_python_semantics(self, x, y):
        ops = {"=": x == y, "!=": x != y, "<": x < y, "<=": x <= y,
               ">": x > y, ">=": x >= y}
        for op, expected in ops.items():
            assert run(Comparison(op, Literal(x), Literal(y)), ()) is expected

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_flip_preserves_semantics(self, x, y):
        for op in ("<", "<=", ">", ">=", "=", "!="):
            expr = Comparison(op, Literal(x), Literal(y))
            assert run(expr, ()) is run(expr.flipped(), ())


class TestAggregates:
    def test_count_star_counts_nulls(self):
        acc = Accumulator("count", count_star=True)
        for v in (1, None, 3):
            acc.add(v)
        assert acc.result() == 3

    def test_count_column_skips_nulls(self):
        acc = Accumulator("count")
        for v in (1, None, 3):
            acc.add(v)
        assert acc.result() == 2

    def test_count_distinct(self):
        acc = Accumulator("count", distinct=True)
        for v in (1, 1, None, 3):
            acc.add(v)
        assert acc.result() == 2

    def test_sum_skips_nulls(self):
        acc = Accumulator("sum")
        for v in (1, None, 3):
            acc.add(v)
        assert acc.result() == 4

    def test_avg(self):
        acc = Accumulator("avg")
        for v in (2, 4):
            acc.add(v)
        assert acc.result() == 3.0

    def test_min_max(self):
        lo, hi = Accumulator("min"), Accumulator("max")
        for v in (5, 1, 9):
            lo.add(v)
            hi.add(v)
        assert lo.result() == 1
        assert hi.result() == 9

    def test_empty_group_semantics(self):
        assert Accumulator("count").result() == 0
        assert Accumulator("sum").result() is None
        assert Accumulator("avg").result() is None

    def test_spec_output_types(self):
        schema = Schema.of(("x", DataType.INT))
        assert AggregateSpec("avg", ColumnRef("x"), "a").output_dtype(
            schema) == DataType.FLOAT
        assert AggregateSpec("sum", ColumnRef("x"), "s").output_dtype(
            schema) == DataType.INT
        assert AggregateSpec("min", ColumnRef("x"), "m").output_dtype(
            schema) == DataType.INT
        assert AggregateSpec("count", None, "c").output_dtype(
            schema) == DataType.INT

    def test_spec_validation(self):
        with pytest.raises(BindError):
            AggregateSpec("median", ColumnRef("x"), "m")
        with pytest.raises(BindError):
            AggregateSpec("sum", None, "s")
