"""Advanced executor tests: filter joins, nested iteration, shipping,
spill charging, function joins — exercised directly on operators."""

import pytest

from repro import ResourceExhausted
from repro.executor.operators import (
    FilterJoinOp,
    FunctionJoinOp,
    NestedIterationOp,
    Operator,
    ShipOp,
    SortOp,
    ValuesOp,
)
from repro.executor.runtime import RuntimeContext
from repro.executor.vectorize import batches_from_rows
from repro.storage.schema import DataType, Schema
from repro.udf import FunctionRelation

KV = Schema.of(("k", DataType.INT), ("v", DataType.INT))
KW = Schema.of(("k", DataType.INT), ("w", DataType.INT))
K = Schema.of(("k", DataType.INT))


def ctx(memory_pages=16):
    return RuntimeContext(memory_pages=memory_pages)


class _FilterSetEcho(Operator):
    """A fake 'restricted inner': emits (k, k*10) for each filter key."""

    def __init__(self, context, param_id):
        super().__init__(context, KW)
        self.param_id = param_id
        self.run_count = 0

    def batches(self):
        self.run_count += 1
        filter_set = self.ctx.filter_set(self.param_id)
        return batches_from_rows(
            ((key, key * 10) for (key,) in filter_set.rows), len(KW))


class TestFilterJoinOp:
    def make(self, context, outer_rows, lossy=False, ship=False,
             materialize=True):
        outer = ValuesOp(context, outer_rows, KV)
        template = _FilterSetEcho(context, "p")
        op = FilterJoinOp(
            context, outer, template, "p",
            bind_positions=[0], filter_schema=K,
            final_outer_positions=[0], final_inner_positions=[0],
            residual=None,
            schema=KV.concat(KW.qualified("I")),
            materialize_production=materialize, lossy=lossy,
            ship_filter=ship,
        )
        return op, template

    def test_exact_filter_join(self):
        context = ctx()
        op, template = self.make(context, [(1, 0), (1, 1), (2, 2)])
        rows = sorted(op.rows())
        assert rows == [(1, 0, 1, 10), (1, 1, 1, 10), (2, 2, 2, 20)]
        # the template ran once with a deduplicated 2-key filter
        assert template.run_count == 1
        assert len(context.filter_sets["p"].rows) == 2

    def test_null_keys_excluded_from_filter(self):
        context = ctx()
        op, _t = self.make(context, [(None, 0), (3, 1)])
        assert sorted(op.rows()) == [(3, 1, 3, 30)]
        assert len(context.filter_sets["p"].rows) == 1

    def test_components_sum_to_ledger_delta(self):
        context = ctx()
        op, _t = self.make(context, [(i % 5, i) for i in range(50)])
        before = context.ledger.snapshot()
        list(op.rows())
        total = context.ledger.delta(before).total(context.params)
        component_sum = sum(op.measured_components.values())
        assert component_sum == pytest.approx(total, rel=1e-6)

    def test_recompute_mode_runs_outer_twice(self):
        context = ctx()
        counter = {"runs": 0}

        class CountingValues(ValuesOp):
            def batches(self_inner):
                counter["runs"] += 1
                return super().batches()

        outer = CountingValues(context, [(1, 0)], KV)
        template = _FilterSetEcho(context, "p")
        op = FilterJoinOp(
            context, outer, template, "p", [0], K, [0], [0], None,
            KV.concat(KW.qualified("I")), materialize_production=False,
        )
        list(op.rows())
        assert counter["runs"] == 2  # production + final-join pass

    def test_ship_filter_charges_network(self):
        context = ctx()
        op, _t = self.make(context, [(1, 0)], ship=True)
        list(op.rows())
        assert context.ledger.net_msgs >= 1

    def test_lossy_binds_bloom(self):
        context = ctx()
        outer = ValuesOp(context, [(1, 0), (2, 1)], KV)

        class MembershipEcho(Operator):
            """Emits every candidate key that passes the membership."""

            def batches(self):
                filter_set = self.ctx.filter_set("p")
                assert filter_set.lossy
                return batches_from_rows(
                    ((key, key * 10) for key in range(10)
                     if key in filter_set), len(KW))

        op = FilterJoinOp(
            context, outer, MembershipEcho(context, KW), "p", [0], K,
            [0], [0], None, KV.concat(KW.qualified("I")), lossy=True,
            bloom_bits=4096,
        )
        rows = sorted(op.rows())
        # false positives from the bloom are removed by the final join
        assert rows == [(1, 0, 1, 10), (2, 1, 2, 20)]


class TestNestedIterationOp:
    def test_runs_template_per_outer_row(self):
        context = ctx()
        outer = ValuesOp(context, [(1, 0), (2, 1), (1, 2)], KV)
        template = _FilterSetEcho(context, "q")
        op = NestedIterationOp(
            context, outer, template, "q", [0], K, None,
            KV.concat(KW.qualified("I")),
        )
        rows = list(op.rows())
        assert template.run_count == 3  # duplicates NOT deduplicated
        assert (1, 0, 1, 10) in rows and (1, 2, 1, 10) in rows

    def test_null_binding_skipped(self):
        context = ctx()
        outer = ValuesOp(context, [(None, 0)], KV)
        template = _FilterSetEcho(context, "q")
        op = NestedIterationOp(
            context, outer, template, "q", [0], K, None,
            KV.concat(KW.qualified("I")),
        )
        assert list(op.rows()) == []
        assert template.run_count == 0


class TestShipAndSpill:
    def test_ship_charges_messages_and_bytes(self):
        context = ctx()
        op = ShipOp(context, ValuesOp(context, [(1, 2)] * 100, KV))
        assert len(op.to_list()) == 100
        assert context.ledger.net_msgs >= 1
        assert context.ledger.net_bytes == pytest.approx(
            100 * KV.row_width())

    def test_sort_spill_charges_io(self):
        small_ctx = RuntimeContext(memory_pages=1)
        rows = [(i % 97, i) for i in range(5000)]
        op = SortOp(small_ctx, ValuesOp(small_ctx, rows, KV), [(0, True)])
        result = op.to_list()
        assert [r[0] for r in result] == sorted(r[0] for r in rows)
        assert small_ctx.ledger.page_writes > 0

    def test_sort_no_spill_in_memory(self):
        big_ctx = RuntimeContext(memory_pages=1000)
        rows = [(i % 7, i) for i in range(100)]
        op = SortOp(big_ctx, ValuesOp(big_ctx, rows, KV), [(0, True)])
        op.to_list()
        assert big_ctx.ledger.page_writes == 0


class TestFunctionJoinOp:
    def make_fn(self):
        return FunctionRelation(
            "G", "g", [("k", DataType.INT)], [("r", DataType.INT)],
            lambda args: [(args[0] + 100,)],
            cost_per_invocation=2.0, locality_factor=0.5,
        )

    def schema_for(self, fn):
        return KV.concat(fn.output_schema)

    def test_repeated_invokes_per_row(self):
        context = ctx()
        fn = self.make_fn()
        outer = ValuesOp(context, [(1, 0), (1, 1)], KV)
        op = FunctionJoinOp(context, outer, fn, [0], "repeated", None,
                            self.schema_for(fn))
        rows = list(op.rows())
        assert len(fn.call_log) == 2
        assert rows[0] == (1, 0, 1, 101)

    def test_memo_deduplicates(self):
        context = ctx()
        fn = self.make_fn()
        outer = ValuesOp(context, [(1, 0), (1, 1), (2, 2)], KV)
        op = FunctionJoinOp(context, outer, fn, [0], "memo", None,
                            self.schema_for(fn))
        assert len(list(op.rows())) == 3
        assert len(fn.call_log) == 2

    def test_filter_mode_sorted_consecutive(self):
        context = ctx()
        fn = self.make_fn()
        outer = ValuesOp(context, [(3, 0), (1, 1), (2, 2), (3, 3)], KV)
        op = FunctionJoinOp(context, outer, fn, [0], "filter", None,
                            self.schema_for(fn))
        assert len(list(op.rows())) == 4
        assert fn.call_log == [(1,), (2,), (3,)]  # sorted, consecutive

    def test_filter_mode_locality_discount(self):
        repeated_ctx, filter_ctx = ctx(), ctx()
        rows = [(1, i) for i in range(4)]
        for mode, context in (("repeated", repeated_ctx),
                              ("filter", filter_ctx)):
            fn = self.make_fn()
            op = FunctionJoinOp(context, ValuesOp(context, rows, KV),
                                fn, [0], mode, None, self.schema_for(fn))
            list(op.rows())
        assert repeated_ctx.ledger.fn_invocations == pytest.approx(8.0)
        assert filter_ctx.ledger.fn_invocations == pytest.approx(1.0)

    def test_null_args_skipped(self):
        context = ctx()
        fn = self.make_fn()
        op = FunctionJoinOp(context, ValuesOp(context, [(None, 0)], KV),
                            fn, [0], "repeated", None,
                            self.schema_for(fn))
        assert list(op.rows()) == []
        assert fn.call_log == []

    def test_filter_mode_skips_null_args_and_accounts_its_memory(self):
        rows = [(None, 0)] + [(i % 5, i) for i in range(100)]
        context = ctx()
        fn = self.make_fn()
        op = FunctionJoinOp(context, ValuesOp(context, rows, KV), fn, [0],
                            "filter", None, self.schema_for(fn))
        assert len(list(op.rows())) == 100
        assert fn.call_log == [(0,), (1,), (2,), (3,), (4,)]
        # production set + distinct arguments + function results
        assert context.mem_peak_bytes == (
            101 * KV.row_width() + 5 * K.row_width()
            + 5 * fn.base_schema.row_width())
        assert context.mem_held_bytes == 0

        tight = RuntimeContext(memory_budget_bytes=50 * KV.row_width())
        op = FunctionJoinOp(tight, ValuesOp(tight, rows, KV), self.make_fn(),
                            [0], "filter", None, self.schema_for(fn))
        with pytest.raises(ResourceExhausted):
            list(op.rows())
        assert tight.mem_held_bytes == 0


class TestOptimizedNestedIteration:
    def test_consecutive_duplicates_reuse_probe(self):
        context = ctx()
        outer = ValuesOp(context, [(1, 0), (1, 1), (2, 2), (1, 3)], KV)
        template = _FilterSetEcho(context, "q")
        op = NestedIterationOp(
            context, outer, template, "q", [0], K, None,
            KV.concat(KW.qualified("I")),
        )
        rows = list(op.rows())
        assert len(rows) == 4
        # keys arrive 1,1,2,1: the consecutive pair shares one probe
        assert template.run_count == 3

    def test_sorted_outer_probes_once_per_distinct(self):
        context = ctx()
        outer = ValuesOp(
            context, sorted([(k % 3, i) for i, k in
                             enumerate(range(12))]), KV,
        )
        template = _FilterSetEcho(context, "q")
        op = NestedIterationOp(
            context, outer, template, "q", [0], K, None,
            KV.concat(KW.qualified("I")),
        )
        assert len(list(op.rows())) == 12
        assert template.run_count == 3  # one per distinct key


class TestPlannerOptimizedIteration:
    def test_sorted_variant_considered_and_correct(self):
        from repro import Database, OptimizerConfig
        from repro.storage.schema import DataType as DT

        db = Database()
        db.create_table("O", [("k", DT.INT), ("v", DT.INT)])
        db.insert("O", [(i % 4, i) for i in range(200)])
        db.analyze()
        db.create_view(
            "VAgg", "SELECT O.k, COUNT(*) AS n FROM O GROUP BY O.k")
        config = OptimizerConfig(forced_view_join="nested_iteration")
        result = db.sql(
            "SELECT O.v, V.n FROM O, VAgg V WHERE O.k = V.k",
            config=config,
        )
        assert len(result) == 200
        assert all(n == 50 for (_v, n) in result.rows)
