"""Span-tree reconciliation over generated queries: every query's
``result.trace``, built from its operators' recorded actuals, must
reconcile with its measured ledger — the execute phase exactly, the
per-span self-ledgers up to float re-association (1e-6) — and its root
operator's rows are the result's rows. The ``exec__*`` goldens
(:mod:`tests.test_engine_differential`) pin the ledger itself; the
generator and configs are :mod:`tests.test_differential`'s.
"""

import random

import pytest

from repro import DataType, OptimizerConfig, Options
from repro.distributed import DistributedDatabase, distributed_config
from tests.test_differential import CONFIGS, make_random_db, random_query


def assert_trace_invariant(db, query, config):
    """Run once; assert the span tree reconciles with the ledger."""
    result = db.sql(query, config=config)
    trace = result.trace
    # exact + attributed reconciliation (raises on mismatch)
    trace.reconcile(result.ledger)
    assert trace.operator_root.actual_rows == len(result.rows), query
    return result


@pytest.mark.parametrize("seed", range(10))
def test_random_queries_trace_invariant(seed):
    rng = random.Random(4000 + seed)
    db = make_random_db(rng)
    for _ in range(5):
        query = random_query(rng)
        config = rng.choice(CONFIGS)
        assert_trace_invariant(db, query, config)


def test_trace_invariant_under_every_config():
    rng = random.Random(555)
    db = make_random_db(rng)
    corpus = [
        "SELECT T1.b, T2.d FROM T1, T2 WHERE T1.a = T2.a AND T1.c < 3",
        "SELECT T1.b, T3.e FROM T1, T2, T3 "
        "WHERE T1.a = T2.a AND T2.d = T3.d AND T3.e > 20",
        "SELECT T1.b, V1.n FROM T1, V1 WHERE T1.a = V1.a AND V1.n > 1",
        "SELECT T1.c, AVG(T1.b) AS m FROM T1 GROUP BY T1.c",
        "SELECT DISTINCT T1.a, T1.c FROM T1 WHERE T1.b > 5 ORDER BY a",
    ]
    for config in CONFIGS:
        for query in corpus:
            assert_trace_invariant(db, query, config)


def test_trace_invariant_with_udf():
    from repro import Database

    db = Database()
    db.create_table("Pts", [("pid", DataType.INT), ("x", DataType.INT)])
    db.insert("Pts", [(i, i % 10) for i in range(150)])
    db.analyze()
    db.functions.register_function(
        "square", [("x", DataType.INT)], [("xx", DataType.INT)],
        lambda args: [(args[0] * args[0],)],
        cost_per_invocation=2.0, locality_factor=0.5,
    )
    query = "SELECT P.pid, F.xx FROM Pts P, square F WHERE P.x = F.x"
    for mode in ("repeated", "memo", "filter"):
        config = OptimizerConfig(forced_function_join=mode)
        assert_trace_invariant(db, query, config)


def test_trace_invariant_distributed():
    """Network charges (ships, probe round-trips, Bloom shipments) are
    attributed through the same sink; the invariant holds across
    semi-join/fetch strategies on a two-site database."""
    rng = random.Random(9)
    db = DistributedDatabase(distributed_config(1.0, 0.001))
    db.create_table("Orders", [("oid", DataType.INT),
                               ("cid", DataType.INT),
                               ("total", DataType.INT)])
    db.create_table("Cust", [("cid", DataType.INT),
                             ("name", DataType.STR)], site="siteB")
    db.insert("Orders", [
        (i, rng.randint(1, 200), rng.randint(1, 1000))
        for i in range(1, 1201)
    ])
    db.insert("Cust", [(c, "n%d" % c) for c in range(1, 201)])
    db.analyze()
    queries = [
        "SELECT O.oid, C.name FROM Orders O, Cust C "
        "WHERE O.cid = C.cid AND O.total > 900",
        "SELECT C.name, COUNT(*) AS n FROM Orders O, Cust C "
        "WHERE O.cid = C.cid GROUP BY C.name",
    ]
    for query in queries:
        assert_trace_invariant(db, query, db.config)


def test_span_ledgers_attribute_to_operators():
    """Self-ledgers are genuinely per-operator: a scan span carries page
    reads, and no single span hoards the whole query's charges."""
    rng = random.Random(21)
    db = make_random_db(rng)
    result = db.sql("SELECT T1.b, T2.d FROM T1, T2 WHERE T1.a = T2.a")
    spans = result.trace.operator_spans()
    scan_spans = [s for s in spans if s.node_type == "SeqScanNode"]
    assert scan_spans, "expected scan spans in the tree"
    assert all(s.self_ledger.page_reads > 0 for s in scan_spans)
    charged = [s for s in spans if s.self_ledger.total() > 0]
    assert len(charged) >= 2, (
        "charges concentrated in %d span(s); attribution is broken"
        % len(charged)
    )


def test_execute_phase_ledger_is_exact():
    """Every entry point records its operators' actuals: an ad-hoc,
    prepared, script and session statement's execute phase is its
    measured ledger exactly, and explain_analyze reads the same record."""
    db = make_random_db(random.Random(33))
    query = "SELECT T1.b, T2.d FROM T1, T2 WHERE T1.a = T2.a AND T1.c < 3"
    with db.new_session() as session:
        results = [db.sql(query), db.prepare(query).execute(),
                   db.execute_script(query + ";")[0], session.sql(query)]
    for result in results:
        assert result.trace.total_ledger == result.ledger
        result.trace.reconcile(result.ledger)
    assert "actual rows=" in db.explain_analyze(query)
    assert db.querylog.recent(1)[0].operators


def test_cached_plan_execution_trace_invariant():
    """A plan-cache hit records its actuals too, and charges what the
    miss did."""
    rng = random.Random(68)
    db = make_random_db(rng)
    query = "SELECT T1.b, T2.d FROM T1, T2 WHERE T1.a = T2.a"
    cold = db.sql(query)  # the first miss only records the text
    db.sql(query, options=Options(use_cache=True))
    warm = assert_trace_invariant(db, query, None)
    assert warm.cached_plan
    assert warm.rows == cold.rows
    assert warm.ledger == cold.ledger
    assert warm.trace.phases["optimize"].extras["plan_cache"] == "hit"
