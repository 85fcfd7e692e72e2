"""Recursive-query differential suite: naive oracle vs the executor.

Every seed derives a graph workload (shape, size, self-loops) and a
recursive query variant (UNION vs UNION ALL, outer bindings, restricted
base) and asserts that three independent evaluation strategies agree:

- the *naive* fixpoint oracle in ``tests/reference_engine.py`` (full
  re-derivation from the accumulated set each round, no optimizer, no
  physical operators);
- the semi-naive executor under the cost-based plan;
- the magic-restricted and full-fixpoint plans forced explicitly, so
  both sides of the DP's costed pair are exercised regardless of which
  one the cost model picks.

The 200-seed sweep is pure stdlib. A hypothesis-based suite with
adversarial edge lists runs on top when hypothesis is installed.
"""

import random

import pytest

from repro import OptimizerConfig
from repro.workloads import GraphConfig, fresh_graph, tc_query

from tests.reference_engine import evaluate_query_naive

N_SEEDS = 200

ACYCLIC_SHAPES = ("chain", "tree", "dag", "star")
ALL_SHAPES = ACYCLIC_SHAPES + ("cycle", "random")


def _workload_for_seed(seed):
    """Derive a (GraphConfig, query sql) pair deterministically."""
    rng = random.Random(seed * 7919 + 13)
    shape = rng.choice(ALL_SHAPES)
    n = rng.randint(3, 18)
    self_loops = rng.randint(0, 2) if shape in ("cycle", "random") else 0
    config = GraphConfig(
        shape=shape,
        num_nodes=n,
        branching=rng.randint(2, 4),
        edge_prob=rng.uniform(0.1, 0.4),
        self_loops=self_loops,
        seed=rng.randint(0, 10_000),
    )
    # UNION ALL diverges on cyclic data; only acyclic shapes may use it
    union_all = shape in ACYCLIC_SHAPES and rng.random() < 0.35
    k = rng.randint(1, n)
    where = rng.choice([
        "",
        "WHERE x = %d" % k,
        "WHERE x < %d" % max(k, 2),
        "WHERE y = %d" % k,
        "WHERE x IN (%d, %d)" % (k, max(1, k - 1)),
        "WHERE x = %d AND y > %d" % (k, rng.randint(0, n)),
    ])
    connector = "UNION ALL" if union_all else "UNION"
    base = "SELECT src, dst FROM Edge"
    if rng.random() < 0.25:
        base += " WHERE src <= %d" % rng.randint(1, n)
    sql = (
        "WITH RECURSIVE tc(x, y) AS (\n"
        "  %s\n"
        "  %s\n"
        "  SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src\n"
        ")\n"
        "SELECT x, y FROM tc %s ORDER BY x, y" % (base, connector, where)
    )
    return config, sql


def _check_agreement(db, sql):
    """All strategies agree on rows, in the query's ORDER BY order
    (every query here orders by the whole row)."""
    oracle = evaluate_query_naive(db.bind(sql))
    assert db.sql(sql).rows == oracle
    for forced in ("full", "magic"):
        config = OptimizerConfig(forced_recursive=forced)
        assert db.sql(sql, config=config).rows == oracle


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_recursive_differential(seed):
    config, sql = _workload_for_seed(seed)
    db = fresh_graph(config)
    _check_agreement(db, sql)


# ---------------------------------------------------------------- edge cases


def test_empty_base_yields_empty_closure():
    db = fresh_graph(GraphConfig("chain", num_nodes=1))  # no edges at all
    for sql in (tc_query(), tc_query("WHERE x = 1")):
        _check_agreement(db, sql)
        assert db.sql(sql).rows == []


def test_single_edge_converges_after_one_empty_delta():
    db = fresh_graph(GraphConfig("chain", num_nodes=2))
    _check_agreement(db, tc_query())
    assert db.sql(tc_query()).rows == [(1, 2)]


def test_self_loop_only_graph():
    import repro
    from repro import DataType

    db = repro.connect()
    db.create_table("Edge", [("src", DataType.INT), ("dst", DataType.INT)])
    db.insert("Edge", [(4, 4)])
    db.analyze()
    _check_agreement(db, tc_query())
    assert db.sql(tc_query()).rows == [(4, 4)]


def test_binding_on_empty_reachable_set():
    db = fresh_graph(GraphConfig("chain", num_nodes=6))
    sql = tc_query("WHERE x = 99")
    _check_agreement(db, sql)
    assert db.sql(sql).rows == []


# ------------------------------------------------------- hypothesis overlay

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

nodes = st.integers(min_value=1, max_value=9)
edge_lists = st.lists(st.tuples(nodes, nodes), min_size=0, max_size=25)


def _graph_db(edges):
    import repro
    from repro import DataType

    db = repro.connect()
    db.create_table("Edge", [("src", DataType.INT), ("dst", DataType.INT)])
    deduped = sorted(set(edges))
    if deduped:
        db.insert("Edge", deduped)
    db.analyze()
    return db


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists, bind=st.integers(min_value=0, max_value=10))
def test_hypothesis_union_closure(edges, bind):
    """Arbitrary digraphs (cycles, self-loops, duplicates) under UNION."""
    db = _graph_db(edges)
    _check_agreement(db, tc_query())
    _check_agreement(db, tc_query("WHERE x = %d" % bind))


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists)
def test_hypothesis_union_all_on_dag(edges, ):
    """UNION ALL path counting on acyclified edge lists."""
    acyclic = [(u, v) for u, v in edges if u < v]  # forward edges only
    db = _graph_db(acyclic)
    sql = (
        "WITH RECURSIVE tc(x, y) AS (\n"
        "  SELECT src, dst FROM Edge\n"
        "  UNION ALL\n"
        "  SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src\n"
        ")\n"
        "SELECT x, y FROM tc ORDER BY x, y"
    )
    _check_agreement(db, sql)
