"""Unit tests for individual executor operators."""

import dataclasses
import importlib
import inspect
import types

import pytest

from repro import Options, ResourceExhausted
from repro.executor.operators import (
    AggregateOp,
    BlockNLJoinOp,
    DistinctOp,
    FilterJoinOp,
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
from repro.executor.runtime import FilterSet, RuntimeContext
from repro.storage.columnar import encode_exact
from repro.expr.aggregates import AggregateSpec
from repro.expr.nodes import ColumnRef, Comparison, Literal, RuntimeMembership
from repro.storage.schema import DataType, Schema
from repro.optimizer.plans import FilterJoinNode
from repro.storage.table import Table, pages_for

from tests.test_plan_golden import check_golden, exec_entry

AB = Schema.of(("a", DataType.INT), ("b", DataType.INT))
CD = Schema.of(("c", DataType.INT), ("d", DataType.INT))


def ctx():
    return RuntimeContext(memory_pages=8)


def values(context, rows, schema=AB):
    return ValuesOp(context, [tuple(r) for r in rows], schema)


class TestOneProtocol:
    """``_batches()`` is the only protocol an operator implements;
    ``Operator.batches()``, which keeps the actuals, is the one way in."""

    def test_one_body_per_operator_and_no_engine_option(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        engine_ops = [cls for cls in subclasses(Operator)
                      if cls.__module__.startswith("repro.")]
        assert len(engine_ops) >= 22
        for cls in engine_ops:
            assert "_batches" in vars(cls), cls.__name__
            assert "batches" not in vars(cls), cls.__name__
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
        context.bind_filter_set("f", FilterSet(
            key, columns=[encode_exact(list(range(0, 1500, 7)))]))
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

    def filter_join(self, context, lossy, production=400):
        """T restricted to the production set's keys: exactly through a
        filter-set scan driving the index, lossily through a Bloom probe
        on the scan."""
        key = Schema.of(("k", DataType.INT))
        outer = values(context, [(k % 40, k) for k in range(production)], CD)
        if lossy:
            template = SeqScanOp(
                context, self.indexed_table(), AB,
                RuntimeMembership("p", [ColumnRef("a")]).resolve(AB))
            inner_key = 0
        else:
            template = IndexNLJoinOp(
                context, FilterSetScanOp(context, "p", key),
                self.indexed_table(), AB, "a", 0, None, key.concat(AB))
            inner_key = 1
        return FilterJoinOp(
            context, outer, template, "p", [0], key, [0], [inner_key], None,
            CD.concat(template.schema), lossy=lossy, bloom_bits=4096)

    @pytest.mark.parametrize("lossy", [False, True])
    def test_filter_join_releases_memory(self, lossy):
        context = ctx()
        assert len(self.filter_join(context, lossy).to_list()) == 800
        assert context.mem_peak_bytes > 0
        assert context.mem_held_bytes == 0
        # ...also when a limit closes it before the last batch
        assert len(LimitOp(context, self.filter_join(context, lossy),
                           3).to_list()) == 3
        assert context.mem_held_bytes == 0

    def test_filter_join_rerun_as_template_fits_its_budget(self):
        """A Filter Join re-executed per binding holds one execution's
        working set, not the sum of all of them."""
        context = ctx()
        self.filter_join(context, lossy=False).to_list()
        one_run = context.mem_peak_bytes

        context = RuntimeContext(memory_pages=8,
                                 memory_budget_bytes=2 * one_run)
        binding = Schema.of(("x", DataType.INT))
        template = self.filter_join(context, lossy=False)
        nested = NestedIterationOp(
            context, values(context, [(x,) for x in range(10)], binding),
            template, "q", [0], binding, None,
            binding.concat(template.schema))
        assert len(nested.to_list()) == 10 * 800
        assert context.mem_peak_bytes <= 2 * one_run
        assert context.mem_held_bytes == 0

        tight = RuntimeContext(memory_pages=8,
                               memory_budget_bytes=one_run // 2)
        with pytest.raises(ResourceExhausted):
            self.filter_join(tight, lossy=False).to_list()
        assert tight.mem_held_bytes == 0


class TestOneFilterSet:
    """One restricted-block builder, one run-time filter-set value, one
    registry — the old spellings are gone, not aliased."""

    def test_old_names_are_gone(self):
        rewrite = importlib.import_module("repro.rewrite")
        assert [name for name in rewrite.__all__
                if name.startswith("restricted")] == ["restricted_block"]
        for old in ("restricted_view_block", "restricted_stored_block",
                    "restricted_view_block_lossy",
                    "restricted_stored_block_lossy"):
            assert not hasattr(rewrite, old)
            assert not hasattr(rewrite.magic, old)
        with pytest.raises(ImportError):
            from repro.rewrite import restricted_view_block  # noqa: F401

        executor = importlib.import_module("repro.executor")
        assert "TempTable" not in executor.__all__
        assert "FilterSet" in executor.__all__
        with pytest.raises(ImportError):
            from repro.executor.runtime import TempTable  # noqa: F401
        context = ctx()
        for old in ("memberships", "bind_membership", "membership"):
            with pytest.raises(AttributeError):
                getattr(context, old)
        assert "final_method" not in inspect.signature(
            FilterJoinNode).parameters
        assert len(dataclasses.fields(Options)) == 9

    def test_typed_filter_set_derives_its_views_lazily(self):
        key = Schema.of(("k", DataType.INT))
        filter_set = FilterSet.distinct(
            key, [encode_exact([3, 1, None, 3, 2])], bloom_bits=1024)
        assert filter_set.size == 3
        assert filter_set.num_pages == pages_for(3, key.row_width())
        assert [row for batch in filter_set.scan()
                for row in batch.rows()] == [(1,), (2,), (3,)]
        assert filter_set._rows is None
        assert filter_set._keys is None
        assert filter_set._bloom is None
        # the first probe builds the bitmap, and only the bitmap
        assert 2 in filter_set
        assert filter_set._bloom is not None
        assert filter_set._keys is None

    def test_per_element_consumers_get_exact_python_objects(self):
        key = Schema.of(("c", DataType.INT))
        context = ctx()
        filter_set = FilterSet.distinct(
            key, [encode_exact([7, 7, 14, None])])
        context.bind_filter_set("f", filter_set)
        join = IndexNLJoinOp(
            context, FilterSetScanOp(context, "f", key),
            TestOneProtocol().indexed_table(), AB, "a", 0, None,
            key.concat(AB))
        rows = join.to_list()
        assert sorted(rows) == [(7, 7, 7), (7, 7, 1507),
                                (14, 14, 14), (14, 14, 1514)]
        assert all(type(value) is int for row in rows for value in row)

        probe = RuntimeMembership("f", [ColumnRef("a")]).resolve(AB)
        probe.filter_set = filter_set
        assert probe.eval((14, 0)) is True
        assert probe.eval((15, 0)) is False
        assert probe.eval((None, 0)) is False
        assert filter_set.rows == [(7,), (14,)]
        assert all(type(k) is int for k in filter_set.keys)


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
        context.bind_filter_set("p1", FilterSet(
            Schema.of(("k", DataType.INT)), rows=[(1,), (2,)]))
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
        context.bind_filter_set("m", FilterSet(
            Schema.of(("k", DataType.INT)), rows=[(1,), (5,)]))
        pred = RuntimeMembership("m", [ColumnRef("a")]).resolve(AB)
        op = FilterOp(context, values(context, [(1, 0), (2, 0), (5, 0)]),
                      pred)
        assert [r[0] for r in op.rows()] == [1, 5]

    def test_filter_bloom_membership(self):
        context = ctx()
        context.bind_filter_set("m", FilterSet(
            Schema.of(("k", DataType.INT)), rows=[(7,)], bloom_bits=1024))
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
