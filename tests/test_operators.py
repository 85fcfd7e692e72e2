"""Unit tests for individual executor operators."""

import dataclasses
import types

from repro import Options
from repro.bloom import BloomFilter
from repro.executor import lowering  # noqa: F401 - defines SpanOperator
from repro.executor.operators import (
    AggregateOp,
    BlockNLJoinOp,
    DistinctOp,
    FilterOp,
    FilterSetScanOp,
    HashJoinOp,
    IndexNLJoinOp,
    IndexScanOp,
    LimitOp,
    MaterializeOp,
    MergeJoinOp,
    NestedIterationOp,
    Operator,
    ProjectOp,
    SeqScanOp,
    SortOp,
    ValuesOp,
)
from repro.executor.runtime import RuntimeContext, TempTable
from repro.storage.columnar import ColumnStore
from repro.expr.aggregates import AggregateSpec
from repro.expr.nodes import ColumnRef, Comparison, Literal, RuntimeMembership
from repro.storage.schema import DataType, Schema
from repro.storage.table import Table

from tests.test_plan_golden import check_golden, exec_entry

AB = Schema.of(("a", DataType.INT), ("b", DataType.INT))
CD = Schema.of(("c", DataType.INT), ("d", DataType.INT))


def ctx():
    return RuntimeContext(memory_pages=8)


def values(context, rows, schema=AB):
    return ValuesOp(context, [tuple(r) for r in rows], schema)


class TestOneProtocol:
    """``batches()`` is the only protocol an operator implements."""

    def test_one_body_per_operator_and_no_engine_option(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        engine_ops = [cls for cls in subclasses(Operator)
                      if cls.__module__.startswith("repro.")]
        assert len(engine_ops) >= 23
        for cls in engine_ops:
            assert "batches" in vars(cls), cls.__name__
            assert "rows" not in vars(cls), cls.__name__
        assert "engine" not in {
            field.name for field in dataclasses.fields(Options)}

    def indexed_table(self, n=3000):
        table = Table("T", AB)
        table.insert_many((i % 1500, i) for i in range(n))
        table.create_index("a", kind="hash")
        return table

    def test_tuple_parents_over_batch_children_match_snapshot(
            self, update_golden):
        """The rows() adapter under the tuple-at-a-time operators: an
        index join over a columnar filter set, and a nested iteration
        re-running an index-scan template per binding."""
        key = Schema.of(("c", DataType.INT))
        entries = []

        context = ctx()
        keys = [(k,) for k in range(0, 1500, 7)]
        context.bind_filter_set("f", TempTable(
            keys, key, store=ColumnStore.build(key, keys)))
        join = IndexNLJoinOp(
            context, FilterSetScanOp(context, "f", key),
            self.indexed_table(), AB, "a", 0, None, key.concat(AB))
        entries.append(exec_entry("index_nl_over_filter_set",
                                  types.SimpleNamespace(
                                      rows=join.to_list(),
                                      ledger=context.ledger)))

        context = ctx()
        bound = RuntimeMembership("p", [ColumnRef("b")]).resolve(AB)
        template = IndexScanOp(context, self.indexed_table(), AB,
                               "a", "=", 9, residual=bound)
        nested = NestedIterationOp(
            context,
            values(context, [((9, 1509, 5)[k % 3], k) for k in range(300)],
                   CD),
            template, "p", [0], key, None, CD.concat(AB))
        entries.append(exec_entry("nested_iteration_over_index_scan",
                                  types.SimpleNamespace(
                                      rows=nested.to_list(),
                                      ledger=context.ledger)))
        check_golden("exec__mixed_protocol", "\n".join(entries),
                     update_golden)

    def test_limit_closing_the_adapter_releases_memory(self):
        context = ctx()
        outer = SortOp(context, values(
            context, [(k % 1500, k) for k in range(4000)], CD), [(0, True)])
        join = IndexNLJoinOp(context, outer, self.indexed_table(), AB,
                             "a", 0, None, CD.concat(AB))
        assert LimitOp(context, join, 5).to_list() == [
            (0, 0, 0, 0), (0, 0, 0, 1500), (0, 1500, 0, 0),
            (0, 1500, 0, 1500), (0, 3000, 0, 0)]
        assert context.mem_peak_bytes > 0
        assert context.mem_held_bytes == 0


class TestScans:
    def make_table(self, n=10):
        table = Table("T", AB)
        table.insert_many((i, i % 3) for i in range(n))
        return table

    def test_seq_scan_yields_all(self):
        context = ctx()
        op = SeqScanOp(context, self.make_table(), AB)
        assert len(op.to_list()) == 10
        assert context.ledger.page_reads >= 1

    def test_seq_scan_predicate(self):
        context = ctx()
        pred = Comparison("=", ColumnRef("b"), Literal(0)).resolve(AB)
        op = SeqScanOp(context, self.make_table(9), AB, pred)
        assert all(row[1] == 0 for row in op.rows())

    def test_seq_scan_restartable(self):
        context = ctx()
        op = SeqScanOp(context, self.make_table(), AB)
        assert op.to_list() == op.to_list()

    def test_index_scan_equality(self):
        table = self.make_table(30)
        table.create_index("b")
        op = IndexScanOp(ctx(), table, AB, "b", "=", 1)
        assert sorted(r[0] for r in op.rows()) == list(range(1, 30, 3))

    def test_index_scan_range(self):
        table = self.make_table(30)
        table.create_index("a", kind="sorted")
        op = IndexScanOp(ctx(), table, AB, "a", "<=", 4)
        assert sorted(r[0] for r in op.rows()) == [0, 1, 2, 3, 4]

    def test_filter_set_scan(self):
        context = ctx()
        temp = TempTable([(1,), (2,)], Schema.of(("k", DataType.INT)))
        context.bind_filter_set("p1", temp)
        op = FilterSetScanOp(context, "p1",
                             Schema.of(("k", DataType.INT)))
        assert op.to_list() == [(1,), (2,)]


class TestUnaryOps:
    def test_filter(self):
        context = ctx()
        pred = Comparison(">", ColumnRef("a"), Literal(2)).resolve(AB)
        op = FilterOp(context, values(context, [(1, 0), (3, 0), (5, 0)]),
                      pred)
        assert [r[0] for r in op.rows()] == [3, 5]

    def test_filter_runtime_membership(self):
        context = ctx()
        context.bind_membership("m", {1, 5})
        pred = RuntimeMembership("m", [ColumnRef("a")]).resolve(AB)
        op = FilterOp(context, values(context, [(1, 0), (2, 0), (5, 0)]),
                      pred)
        assert [r[0] for r in op.rows()] == [1, 5]

    def test_filter_bloom_membership(self):
        context = ctx()
        bloom = BloomFilter(1024, expected_items=2)
        bloom.add(7)
        context.bind_membership("m", bloom)
        pred = RuntimeMembership("m", [ColumnRef("a")]).resolve(AB)
        op = FilterOp(context, values(context, [(7, 0), (100, 0)]), pred)
        assert (7, 0) in op.to_list()

    def test_project(self):
        context = ctx()
        exprs = [ColumnRef("b").resolve(AB)]
        op = ProjectOp(context, values(context, [(1, 9)]), exprs,
                       Schema.of(("b", DataType.INT)))
        assert op.to_list() == [(9,)]

    def test_distinct(self):
        context = ctx()
        op = DistinctOp(context, values(context, [(1, 1), (1, 1), (2, 2)]))
        assert op.to_list() == [(1, 1), (2, 2)]

    def test_sort_asc_desc(self):
        context = ctx()
        rows = [(3, 1), (1, 2), (2, 2)]
        op = SortOp(context, values(context, rows), [(1, True), (0, False)])
        assert op.to_list() == [(3, 1), (2, 2), (1, 2)]

    def test_sort_nulls_first(self):
        context = ctx()
        op = SortOp(context, values(context, [(2, 0), (None, 0), (1, 0)]),
                    [(0, True)])
        assert [r[0] for r in op.rows()] == [None, 1, 2]

    def test_limit(self):
        context = ctx()
        op = LimitOp(context, values(context, [(i, 0) for i in range(10)]),
                     3)
        assert len(op.to_list()) == 3

    def test_materialize_charges_spill(self):
        context = RuntimeContext(memory_pages=1)
        rows = [(i, i) for i in range(5000)]
        op = MaterializeOp(context, values(context, rows))
        assert len(op.to_list()) == 5000
        assert context.ledger.page_writes > 0


class TestAggregateOp:
    def test_group_by(self):
        context = ctx()
        spec = AggregateSpec("sum", ColumnRef("a"), "total")
        arg = ColumnRef("a").resolve(AB)
        op = AggregateOp(
            context, values(context, [(1, 0), (2, 0), (5, 1)]),
            [1], [(spec, arg)],
            Schema.of(("b", DataType.INT), ("total", DataType.INT)),
        )
        assert sorted(op.rows()) == [(0, 3), (1, 5)]

    def test_scalar_aggregate_empty_input(self):
        context = ctx()
        spec = AggregateSpec("count", None, "n")
        op = AggregateOp(context, values(context, []), [], [(spec, None)],
                         Schema.of(("n", DataType.INT)))
        assert op.to_list() == [(0,)]

    def test_grouped_empty_input_no_rows(self):
        context = ctx()
        spec = AggregateSpec("count", None, "n")
        op = AggregateOp(context, values(context, []), [0], [(spec, None)],
                         Schema.of(("b", DataType.INT),
                                   ("n", DataType.INT)))
        assert op.to_list() == []

    def test_avg_skips_nulls(self):
        context = ctx()
        schema = Schema.of(("a", DataType.INT), ("b", DataType.INT))
        spec = AggregateSpec("avg", ColumnRef("a"), "m")
        arg = ColumnRef("a").resolve(schema)
        op = AggregateOp(
            context, values(context, [(2, 0), (None, 0), (4, 0)]),
            [1], [(spec, arg)],
            Schema.of(("b", DataType.INT), ("m", DataType.FLOAT)),
        )
        assert op.to_list() == [(0, 3.0)]


def join_schema():
    return AB.concat(CD)


class TestJoins:
    def test_hash_join_basic(self):
        context = ctx()
        outer = values(context, [(1, 10), (2, 20), (3, 30)])
        inner = values(context, [(1, 100), (3, 300), (9, 900)], CD)
        op = HashJoinOp(context, outer, inner, [0], [0], None,
                        join_schema())
        assert sorted(op.rows()) == [(1, 10, 1, 100), (3, 30, 3, 300)]

    def test_hash_join_null_keys_never_match(self):
        context = ctx()
        outer = values(context, [(None, 1)])
        inner = values(context, [(None, 2)], CD)
        op = HashJoinOp(context, outer, inner, [0], [0], None,
                        join_schema())
        assert op.to_list() == []

    def test_hash_join_residual(self):
        context = ctx()
        combined = join_schema()
        residual = Comparison(">", ColumnRef("d"),
                              ColumnRef("b")).resolve(combined)
        outer = values(context, [(1, 10), (1, 1000)])
        inner = values(context, [(1, 100)], CD)
        op = HashJoinOp(context, outer, inner, [0], [0], residual,
                        combined)
        assert op.to_list() == [(1, 10, 1, 100)]

    def test_hash_join_duplicates(self):
        context = ctx()
        outer = values(context, [(1, 1), (1, 2)])
        inner = values(context, [(1, 7), (1, 8)], CD)
        op = HashJoinOp(context, outer, inner, [0], [0], None,
                        join_schema())
        assert len(op.to_list()) == 4

    def test_semi_join_emits_inner_once(self):
        context = ctx()
        outer = values(context, [(1, 1), (1, 2)])
        inner = values(context, [(1, 7), (2, 8)], CD)
        op = HashJoinOp(context, outer, inner, [0], [0], None, CD,
                        semi=True)
        assert op.to_list() == [(1, 7)]

    def test_merge_join(self):
        context = ctx()
        outer = values(context, [(1, 10), (2, 20), (2, 21), (4, 40)])
        inner = values(context, [(2, 200), (2, 201), (3, 300)], CD)
        op = MergeJoinOp(context, outer, inner, [0], [0], None,
                         join_schema())
        assert len(op.to_list()) == 4  # 2x2 on key 2

    def test_merge_join_equals_hash_join(self):
        rows_left = [(i % 7, i) for i in range(40)]
        rows_right = [(i % 5, i * 10) for i in range(30)]
        c1, c2 = ctx(), ctx()
        hash_result = sorted(HashJoinOp(
            c1, values(c1, rows_left), values(c1, rows_right, CD),
            [0], [0], None, join_schema(),
        ).rows())
        merge_result = sorted(MergeJoinOp(
            c2, values(c2, sorted(rows_left)),
            values(c2, sorted(rows_right), CD),
            [0], [0], None, join_schema(),
        ).rows())
        assert hash_result == merge_result

    def test_block_nlj_equals_hash_join(self):
        rows_left = [(i % 4, i) for i in range(25)]
        rows_right = [(i % 6, i) for i in range(18)]
        c1, c2 = ctx(), ctx()
        nlj = sorted(BlockNLJoinOp(
            c1, values(c1, rows_left), values(c1, rows_right, CD),
            [0], [0], None, join_schema(),
        ).rows())
        hj = sorted(HashJoinOp(
            c2, values(c2, rows_left), values(c2, rows_right, CD),
            [0], [0], None, join_schema(),
        ).rows())
        assert nlj == hj

    def test_block_nlj_cross_product(self):
        context = ctx()
        op = BlockNLJoinOp(
            context, values(context, [(1, 1), (2, 2)]),
            values(context, [(9, 9)], CD), [], [], None, join_schema(),
        )
        assert len(op.to_list()) == 2

    def test_hash_join_spill_charged(self):
        context = RuntimeContext(memory_pages=1)
        rows = [(i, i) for i in range(3000)]
        op = HashJoinOp(
            context, values(context, rows), values(context, rows, CD),
            [0], [0], None, join_schema(),
        )
        assert len(op.to_list()) == 3000
        assert context.ledger.page_writes > 0
