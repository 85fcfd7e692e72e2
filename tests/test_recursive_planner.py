"""The magic-vs-fixpoint costed pair inside the System-R DP.

The planner emits two access-path candidates for a recursive relation —
the full fixpoint and (when an outer binding can be pushed onto a
magic-safe column) the magic-restricted fixpoint — into the same memo
bucket, so the choice falls out of ordinary cost comparison and
``db.why_not`` can name the losing rival with an exact cost delta.
"""

import pytest

from repro import Options, OptimizerConfig
from repro.rewrite.magic import magic_safe_positions, recursive_magic_bindings
from repro.workloads import GraphConfig, fresh_graph, tc_query

from tests.reference_engine import evaluate_query_naive


def _chain_db(n=12):
    return fresh_graph(GraphConfig("chain", num_nodes=n))


def _dense_db():
    # near-complete digraph: the closure barely exceeds the base, so the
    # magic candidate's extra iterations outweigh its savings
    return fresh_graph(GraphConfig("random", num_nodes=110,
                                   edge_prob=0.8, seed=5))


class TestCostedPair:
    def test_bounded_reachability_chooses_magic(self):
        db = _chain_db()
        result = db.sql(tc_query("WHERE x = 1"))
        assert "MagicFixpoint" in result.plan.explain()
        rep = db.why_not(tc_query("WHERE x = 1"), "magic")
        assert rep.status == "chosen"

    def test_loser_reported_with_exact_cost_delta(self):
        db = _chain_db()
        rep = db.why_not(tc_query("WHERE x = 1"), "fixpoint")
        assert rep.status == "rejected"
        assert rep.delta > 0.0
        text = rep.render()
        assert "magic" in text and "cost" in text

    def test_dense_graph_rejects_magic_on_cost(self):
        db = _dense_db()
        result = db.sql(tc_query("WHERE x = 1"))
        assert "MagicFixpoint" not in result.plan.explain()
        assert "Fixpoint" in result.plan.explain()
        rep = db.why_not(tc_query("WHERE x = 1"), "magic")
        assert rep.status == "rejected"
        assert rep.delta > 0.0

    def test_unbound_query_generates_no_magic_candidate(self):
        db = _chain_db()
        rep = db.why_not(tc_query(), "magic")
        assert rep.status in ("disabled", "not-generated")
        assert "no pushable" in rep.render()

    def test_rejected_plan_still_correct(self):
        # force the DP's loser and check it computes the same answer
        db = _chain_db()
        sql = tc_query("WHERE x = 2")
        won = db.sql(sql)
        lost = db.sql(sql, config=OptimizerConfig(forced_recursive="full"))
        assert won.rows == lost.rows
        assert "MagicFixpoint" in won.plan.explain()
        assert "MagicFixpoint" not in lost.plan.explain()


class TestForcedRecursive:
    def test_forced_magic(self):
        db = _dense_db()
        result = db.sql(tc_query("WHERE x = 1"),
                        config=OptimizerConfig(forced_recursive="magic"))
        assert "MagicFixpoint" in result.plan.explain()

    def test_forced_full_reports_exclusion(self):
        db = _chain_db()
        rep = db.why_not(tc_query("WHERE x = 1"), "magic",
                         config=OptimizerConfig(forced_recursive="full"))
        assert rep.status in ("disabled", "not-generated")
        assert "forced_recursive" in rep.render()

    def test_forced_magic_falls_back_without_binding(self):
        db = _chain_db(6)
        result = db.sql(tc_query(),
                        config=OptimizerConfig(forced_recursive="magic"))
        assert "Fixpoint" in result.plan.explain()
        assert "MagicFixpoint" not in result.plan.explain()
        assert len(result.rows) == 15

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(forced_recursive="always").validate()


class TestMagicSafety:
    def _relation(self, db, sql):
        block = db.bind(sql)
        return block, [r for r in block.relations
                       if r.kind == "recursive"][0]

    def test_pass_through_position_is_safe(self):
        db = _chain_db(4)
        _block, rel = self._relation(db, tc_query("WHERE x = 1"))
        # x is the delta pass-through (t.x); y is computed (e.dst)
        assert magic_safe_positions(rel) == {0}

    def test_binding_on_unsafe_column_not_pushed(self):
        db = _chain_db(6)
        sql = tc_query("WHERE y = 4")
        block, rel = self._relation(db, sql)
        pushable, remaining = recursive_magic_bindings(rel, block.predicates)
        assert pushable == []
        rep = db.why_not(sql, "magic")
        assert rep.status in ("disabled", "not-generated")
        assert "no pushable" in rep.render()
        # correctness unaffected: filter applies above the fixpoint
        assert db.sql(sql).rows == [(i, 4) for i in range(1, 4)]

    def test_mixed_bindings_split(self):
        db = _chain_db(8)
        sql = tc_query("WHERE x = 2 AND y > 4")
        block, rel = self._relation(db, sql)
        pushable, remaining = recursive_magic_bindings(rel, block.predicates)
        assert len(pushable) == 1 and pushable[0].position == 0
        assert len(remaining) == 1
        assert db.sql(sql).rows == [(2, j) for j in range(5, 9)]

    def test_in_list_binding_is_pushable(self):
        db = _chain_db(8)
        sql = tc_query("WHERE x IN (2, 3)")
        block, rel = self._relation(db, sql)
        pushable, _remaining = recursive_magic_bindings(rel, block.predicates)
        assert len(pushable) == 1
        rows = db.sql(sql).rows
        assert rows == sorted([(2, j) for j in range(3, 9)] +
                              [(3, j) for j in range(4, 9)])


class TestRecursiveInJoins:
    def test_closure_joined_with_base_table(self):
        db = _chain_db(5)
        sql = (
            "WITH RECURSIVE tc(x, y) AS ("
            " SELECT src, dst FROM Edge"
            " UNION"
            " SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src)"
            " SELECT T.x, E.dst FROM tc T, Edge E"
            " WHERE T.y = E.src AND T.x = 1 ORDER BY E.dst"
        )
        rows = db.sql(sql).rows
        assert rows == evaluate_query_naive(db.bind(sql))
        assert rows == [(1, j) for j in range(3, 6)]

    def test_plan_cache_replans_consistently(self):
        db = _chain_db(6)
        sql = tc_query("WHERE x = 1")
        cold = db.sql(sql, options=Options(use_cache=True))
        warm = db.sql(sql, options=Options(use_cache=True))
        assert cold.rows == warm.rows
        assert cold.plan.explain() == warm.plan.explain()
