"""Recursive SQL front end: WITH RECURSIVE, CREATE RECURSIVE VIEW,
validation errors, the iteration limit, and deadline interruption."""

import time

import pytest

import repro
from repro import (
    DataType,
    FixpointLimitExceeded,
    Options,
    QueryTimeout,
    RecursiveViewError,
)
from repro.workloads import GraphConfig, build_graph, fresh_graph, tc_query


def _chain_db(n=6):
    return fresh_graph(GraphConfig("chain", num_nodes=n))


def _cycle_db(n=4):
    return fresh_graph(GraphConfig("cycle", num_nodes=n))


CHAIN_TC = [(i, j) for i in range(1, 6) for j in range(i + 1, 7)]


class TestWithRecursive:
    def test_transitive_closure_on_chain(self):
        db = _chain_db(6)
        assert db.sql(tc_query()).rows == sorted(CHAIN_TC)

    def test_outer_binding_restricts_closure(self):
        db = _chain_db(6)
        assert db.sql(tc_query("WHERE x = 3")).rows == \
            [(3, j) for j in range(4, 7)]

    def test_union_all_counts_paths(self):
        # diamond: two paths 1->4, so (1, 4) appears twice under ALL
        db = repro.connect()
        db.create_table("Edge", [("src", DataType.INT), ("dst", DataType.INT)])
        db.insert("Edge", [(1, 2), (1, 3), (2, 4), (3, 4)])
        db.analyze()
        sql = (
            "WITH RECURSIVE tc(x, y) AS ("
            " SELECT src, dst FROM Edge"
            " UNION ALL"
            " SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src)"
            " SELECT x, y FROM tc ORDER BY x, y"
        )
        rows = db.sql(sql).rows
        assert rows.count((1, 4)) == 2
        assert rows.count((1, 2)) == 1

    def test_non_recursive_cte_under_with_recursive_keyword(self):
        # RECURSIVE declared but no self-reference: plain CTE semantics
        db = _chain_db(4)
        sql = (
            "WITH RECURSIVE e2(a, b) AS ("
            " SELECT src, dst FROM Edge WHERE src < 3)"
            " SELECT a, b FROM e2 ORDER BY a"
        )
        assert db.sql(sql).rows == [(1, 2), (2, 3)]

    def test_explain_names_the_fixpoint(self):
        db = _chain_db(5)
        plan = db.sql(tc_query("WHERE x = 1")).plan
        assert "Fixpoint" in plan.explain()

    def test_prepared_statement_reuse(self):
        db = _chain_db(5)
        stmt = db.prepare(tc_query("WHERE x = 2"))
        assert stmt.is_query
        first = stmt.execute().rows
        assert first == stmt.execute().rows
        assert first == [(2, j) for j in range(3, 6)]


class TestRecursiveViews:
    def test_create_recursive_view_sql(self):
        db = _chain_db(5)
        db.sql(
            "CREATE RECURSIVE VIEW tc (x, y) AS"
            " SELECT src, dst FROM Edge"
            " UNION"
            " SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src"
        )
        rows = db.sql("SELECT x, y FROM tc WHERE x = 1 ORDER BY y").rows
        assert rows == [(1, j) for j in range(2, 6)]

    def test_create_view_api_recursive_flag(self):
        db = _chain_db(4)
        db.create_view(
            "tc",
            "SELECT src, dst FROM Edge"
            " UNION"
            " SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src",
            column_aliases=("x", "y"),
            recursive=True,
        )
        assert db.sql("SELECT x, y FROM tc ORDER BY x, y").rows == \
            [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]

    def test_plain_view_self_reference_is_typed_error(self):
        db = _chain_db(3)
        db.create_view("v", "SELECT src, dst FROM Edge"
                            " UNION SELECT src, dst FROM v")
        with pytest.raises(RecursiveViewError) as exc:
            db.sql("SELECT * FROM v")
        assert "CREATE RECURSIVE VIEW" in str(exc.value)
        assert exc.value.view_name == "v"


class TestValidation:
    def _bad(self, db, sql, fragment):
        with pytest.raises(RecursiveViewError) as exc:
            db.sql(sql)
        assert fragment in str(exc.value)
        return exc.value

    def test_self_reference_without_recursive_keyword(self):
        db = _chain_db(3)
        err = self._bad(
            db,
            "WITH tc(x, y) AS (SELECT src, dst FROM Edge UNION"
            " SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src)"
            " SELECT * FROM tc",
            "WITH RECURSIVE",
        )
        assert err.view_name == "tc"

    def test_non_linear_two_references_in_one_branch(self):
        db = _chain_db(3)
        self._bad(
            db,
            "WITH RECURSIVE tc(x, y) AS (SELECT src, dst FROM Edge UNION"
            " SELECT a.x, b.y FROM tc a, tc b WHERE a.y = b.x)"
            " SELECT * FROM tc",
            "non-linear",
        )

    def test_non_linear_two_recursive_branches(self):
        db = _chain_db(3)
        self._bad(
            db,
            "WITH RECURSIVE tc(x, y) AS (SELECT src, dst FROM Edge"
            " UNION SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src"
            " UNION SELECT e.src, t.y FROM Edge e, tc t WHERE e.dst = t.x)"
            " SELECT * FROM tc",
            "non-linear",
        )

    def test_self_reference_inside_subquery(self):
        db = _chain_db(3)
        self._bad(
            db,
            "WITH RECURSIVE tc(x, y) AS (SELECT src, dst FROM Edge UNION"
            " SELECT s.x, s.y FROM (SELECT x, y FROM tc) s)"
            " SELECT * FROM tc",
            "subquery",
        )

    def test_missing_base_branch(self):
        db = _chain_db(3)
        self._bad(
            db,
            "WITH RECURSIVE tc(x, y) AS ("
            " SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src)"
            " SELECT * FROM tc",
            "base",
        )

    def test_aggregate_in_recursive_branch(self):
        db = _chain_db(3)
        self._bad(
            db,
            "WITH RECURSIVE tc(x, y) AS (SELECT src, dst FROM Edge UNION"
            " SELECT t.x, MAX(e.dst) FROM tc t, Edge e WHERE t.y = e.src"
            " GROUP BY t.x)"
            " SELECT * FROM tc",
            "aggregate",
        )

    def test_order_by_on_recursive_definition(self):
        db = _chain_db(3)
        self._bad(
            db,
            "WITH RECURSIVE tc(x, y) AS (SELECT src, dst FROM Edge UNION"
            " SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src"
            " ORDER BY x LIMIT 3)"
            " SELECT * FROM tc",
            "ORDER BY",
        )

    def test_union_width_mismatch(self):
        db = _chain_db(3)
        self._bad(
            db,
            "WITH RECURSIVE tc(x, y) AS (SELECT src, dst FROM Edge UNION"
            " SELECT t.x, e.dst, e.src FROM tc t, Edge e WHERE t.y = e.src)"
            " SELECT * FROM tc",
            "columns",
        )

    def test_mutual_recursion_between_ctes(self):
        db = _chain_db(3)
        with pytest.raises(RecursiveViewError) as exc:
            db.sql(
                "WITH RECURSIVE a(x) AS (SELECT src FROM Edge UNION"
                " SELECT x FROM b),"
                " b(x) AS (SELECT dst FROM Edge UNION SELECT x FROM a)"
                " SELECT * FROM a"
            )
        assert "recursion" in str(exc.value) or "references" in str(exc.value)


class TestFixpointLimit:
    # UNION ALL on a cycle never converges; only the limit stops it
    DIVERGENT = (
        "WITH RECURSIVE tc(x, y) AS ("
        " SELECT src, dst FROM Edge"
        " UNION ALL"
        " SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src)"
        " SELECT x, y FROM tc"
    )

    def test_limit_raises_typed_error_with_fields(self):
        db = _cycle_db(4)
        with pytest.raises(FixpointLimitExceeded) as exc:
            db.sql(self.DIVERGENT, options=Options(max_fixpoint_iterations=25))
        assert exc.value.limit == 25
        assert exc.value.iterations >= 25

    def test_limit_is_a_connection_default(self):
        db = _cycle_db(3)
        db.configure(max_fixpoint_iterations=10)
        with pytest.raises(FixpointLimitExceeded) as exc:
            db.sql(self.DIVERGENT)
        assert exc.value.limit == 10
        # per-call option overrides the connection default
        with pytest.raises(FixpointLimitExceeded) as exc:
            db.sql(self.DIVERGENT, options=Options(max_fixpoint_iterations=7))
        assert exc.value.limit == 7

    def test_generous_limit_lets_union_converge(self):
        db = _cycle_db(4)
        rows = db.sql(tc_query(), options=Options(max_fixpoint_iterations=50))
        assert len(rows.rows) == 16  # full closure of a 4-cycle

    def test_limit_error_is_a_structured_event(self):
        db = _cycle_db(3)
        db.event_log.enable()
        with pytest.raises(FixpointLimitExceeded):
            db.sql(self.DIVERGENT, options=Options(max_fixpoint_iterations=5))
        errors = db.event_log.events(event="error")
        assert errors
        assert errors[-1]["error"] == "FixpointLimitExceeded"

    def test_vector_engine_enforces_the_same_limit(self):
        db = _cycle_db(3)
        with pytest.raises(FixpointLimitExceeded) as exc:
            db.sql(self.DIVERGENT,
                   options=Options(max_fixpoint_iterations=25))
        assert exc.value.iterations == exc.value.limit == 25


class TestDeadline:
    def test_deadline_interrupts_fixpoint_mid_iteration(self):
        # a large random graph whose closure takes real work per pass;
        # the deadline must fire inside the fixpoint, not after it
        db = fresh_graph(GraphConfig("random", num_nodes=60,
                                     edge_prob=0.4, seed=11))
        started = time.perf_counter()
        with pytest.raises(QueryTimeout):
            db.sql(tc_query(), options=Options(timeout=0.01))
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
