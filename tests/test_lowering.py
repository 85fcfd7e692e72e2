"""Lowering tests: plan-node -> operator mapping and name resolution."""

import pytest

from repro import Database, OptimizerConfig
from repro.storage.schema import DataType
from repro.errors import PlanError
from repro.executor.lowering import lower
from repro.executor.operators import (
    AggregateOp,
    BlockNLJoinOp,
    DistinctOp,
    FilterJoinOp,
    HashJoinOp,
    IndexNLJoinOp,
    IndexScanOp,
    LimitOp,
    MergeJoinOp,
    NestedIterationOp,
    ProjectOp,
    SeqScanOp,
    ShipOp,
    SortOp,
)
from repro.executor.runtime import RuntimeContext


def ops_in(op):
    """All operators in a lowered tree."""
    out = []
    stack = [op]
    while stack:
        node = stack.pop()
        out.append(node)
        for attr in ("child", "outer", "inner", "template"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)
    return out


@pytest.fixture()
def db():
    database = Database()
    database.create_table("R", [("a", DataType.INT), ("b", DataType.INT)])
    database.create_table("S", [("a", DataType.INT), ("c", DataType.INT)])
    database.insert("R", [(i % 8, i) for i in range(100)])
    database.insert("S", [(i % 8, i) for i in range(50)])
    database.create_index("S", "a")
    database.analyze()
    return database


def lowered(db, sql, config=None):
    plan, _ = db.plan(sql, config)
    return lower(plan, RuntimeContext())


class TestLoweringShapes:
    def test_scan_project(self, db):
        op = lowered(db, "SELECT a FROM R")
        kinds = {type(o) for o in ops_in(op)}
        assert ProjectOp in kinds and SeqScanOp in kinds

    def test_index_scan(self, db):
        # a table big enough that probing beats a sequential scan
        db.create_table("Big", [("a", DataType.INT),
                                ("b", DataType.INT)])
        db.insert("Big", [(i % 500, i) for i in range(5000)])
        db.create_index("Big", "a")
        db.analyze("Big")
        op = lowered(db, "SELECT b FROM Big WHERE a = 3")
        assert any(isinstance(o, IndexScanOp) for o in ops_in(op))

    def test_hash_join(self, db):
        config = OptimizerConfig(
            enable_merge_join=False, enable_nested_loops=False,
            enable_index_nested_loops=False, enable_filter_join=False,
            enable_bloom_filter=False,
        )
        op = lowered(db, "SELECT R.b FROM R, S WHERE R.a = S.a", config)
        assert any(isinstance(o, HashJoinOp) for o in ops_in(op))

    def test_merge_join_with_sorts(self, db):
        config = OptimizerConfig(
            enable_hash_join=False, enable_nested_loops=False,
            enable_index_nested_loops=False, enable_filter_join=False,
            enable_bloom_filter=False,
        )
        op = lowered(db, "SELECT R.b FROM R, S WHERE R.a = S.a", config)
        kinds = [type(o) for o in ops_in(op)]
        assert MergeJoinOp in kinds

    def test_inl_join(self, db):
        config = OptimizerConfig(forced_stored_join="inl")
        op = lowered(db, "SELECT R.b FROM R, S WHERE R.a = S.a", config)
        assert any(isinstance(o, IndexNLJoinOp) for o in ops_in(op))

    def test_nlj_for_cross_product(self, db):
        op = lowered(db, "SELECT R.b FROM R, S")
        assert any(isinstance(o, BlockNLJoinOp) for o in ops_in(op))

    def test_aggregate_sort_limit_distinct(self, db):
        op = lowered(
            db,
            "SELECT DISTINCT b FROM R ORDER BY b LIMIT 3",
        )
        kinds = {type(o) for o in ops_in(op)}
        assert {DistinctOp, SortOp, LimitOp} <= kinds

    def test_grouped_query(self, db):
        op = lowered(db, "SELECT a, COUNT(*) AS n FROM R GROUP BY a")
        assert any(isinstance(o, AggregateOp) for o in ops_in(op))


class TestLoweringSemantics:
    def test_lowered_tree_executes_same_as_database(self, db):
        sql = "SELECT R.a, S.c FROM R, S WHERE R.a = S.a AND R.b > 50"
        plan, _ = db.plan(sql)
        op = lower(plan, RuntimeContext())
        direct = sorted(op.rows())
        via_db = sorted(db.sql(sql).rows)
        assert direct == via_db

    def test_relowering_same_plan_is_reusable(self, db):
        plan, _ = db.plan("SELECT a FROM R WHERE b < 10")
        first = sorted(lower(plan, RuntimeContext()).rows())
        second = sorted(lower(plan, RuntimeContext()).rows())
        assert first == second

    def test_unknown_node_rejected(self):
        from repro.optimizer.plans import PlanNode
        from repro.storage.schema import Schema

        class WeirdNode(PlanNode):
            pass

        with pytest.raises(PlanError):
            lower(WeirdNode(Schema(())), RuntimeContext())


class TestViewLowering:
    def test_filter_join_tree(self, db):
        db.create_view("SAgg",
                       "SELECT S.a, COUNT(*) AS n FROM S GROUP BY S.a")
        config = OptimizerConfig(forced_view_join="filter_join")
        op = lowered(
            db, "SELECT R.b, V.n FROM R, SAgg V WHERE R.a = V.a",
            config,
        )
        assert any(isinstance(o, FilterJoinOp) for o in ops_in(op))

    def test_nested_iteration_tree(self, db):
        db.create_view("SAgg2",
                       "SELECT S.a, COUNT(*) AS n FROM S GROUP BY S.a")
        config = OptimizerConfig(forced_view_join="nested_iteration")
        op = lowered(
            db, "SELECT R.b, V.n FROM R, SAgg2 V WHERE R.a = V.a",
            config,
        )
        assert any(isinstance(o, NestedIterationOp) for o in ops_in(op))


class TestDistributedLowering:
    def test_ship_op_present(self):
        from repro.distributed import DistributedDatabase
        db = DistributedDatabase()
        db.create_table("T", [("x", DataType.INT)], site="far")
        db.insert("T", [(1,), (2,)])
        db.analyze()
        plan, _ = db.plan("SELECT x FROM T")
        op = lower(plan, RuntimeContext())
        assert any(isinstance(o, ShipOp) for o in ops_in(op))


class TestTracedLowering:
    def test_tracers_count_rows(self, db):
        result = db.sql("SELECT a FROM R WHERE b < 4")
        root = result.trace.operator_root
        assert root.actual_rows == len(result.rows)
        assert root.executions == 1
        # every executed node in the tree has a span
        assert len(list(root.walk())) >= 2

    def test_explain_analyze_shows_actuals(self, db):
        text = db.explain_analyze("SELECT a FROM R WHERE b < 4")
        assert "actual rows=" in text
        assert "est rows=" in text
