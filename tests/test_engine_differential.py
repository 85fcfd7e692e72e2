"""Engine differential suite: vector vs iterator execution.

The vectorized batch engine is a second lowering target over the same
operator tree, and its contract is strict: for every query in the golden
corpus it must return **byte-identical rows** and charge an **identical
cost ledger** (same pages, CPU, messages, invocations — to the last
fraction), under every optimizer regime, including UDF, distributed,
fault-injected, traced, and memory-budgeted paths. Plans are chosen
before the engine is, so golden plans cannot move either.

The corpus is imported from ``test_plan_golden`` — the same 20 queries x
3 regimes that snapshot the planner — so any query added there is
automatically covered here.
"""

import random

import pytest

from repro import (
    Database,
    DataType,
    OptimizerConfig,
    Options,
    QueryTimeout,
    ResourceExhausted,
)
from repro.distributed import DistributedDatabase, distributed_config
from repro.distributed.network import FaultPlan, RetryPolicy
from repro.optimizer.plans import FilterJoinNode
from repro.workloads import MOTIVATING_QUERY, StarConfig, build_star

from tests.test_planner_basic import find_nodes
from tests.test_plan_golden import (
    REGIMES,
    WORKLOADS,
    _distributed_db,
    _regime_config,
)

ENGINES = ("iterator", "vector")

_DB_CACHE = {}


def _db(workload):
    # one database per workload for the whole module: queries are pure
    # SELECTs, so runs under both engines see identical state
    if workload not in _DB_CACHE:
        _DB_CACHE[workload] = WORKLOADS[workload][0]()
    return _DB_CACHE[workload]


def _run(db, sql, config, engine, **fields):
    return db.sql(sql, config=config,
                  options=Options(engine=engine, **fields))


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rows_and_ledger_identical(workload, regime):
    """The core differential: byte-identical rows, identical ledger,
    identical plan, for every (workload, regime, query) triple."""
    db = _db(workload)
    config = _regime_config(db, REGIMES[regime])
    for key, sql in WORKLOADS[workload][1]:
        base = _run(db, sql, config, "iterator")
        vec = _run(db, sql, config, "vector")
        label = "%s/%s/%s" % (workload, regime, key)
        assert vec.rows == base.rows, label
        assert vec.ledger.as_dict() == base.ledger.as_dict(), (
            label, _ledger_diff(base, vec))
        # engine choice happens after planning: plans must be identical
        assert vec.plan.explain() == base.plan.explain(), label


def _ledger_diff(base, vec):
    a, b = base.ledger.as_dict(), vec.ledger.as_dict()
    return {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}


def test_traced_runs_match_untraced_ledger():
    """Tracing must not perturb either engine's charges, the span trees
    must reconcile, and vector spans carry real batch counters."""
    db = _db("star")
    config = _regime_config(db, REGIMES["default"])
    _key, sql = WORKLOADS["star"][1][4]  # sales_by_region aggregate
    plain = {e: _run(db, sql, config, e) for e in ENGINES}
    traced = {e: _run(db, sql, config, e, trace=True) for e in ENGINES}
    for engine in ENGINES:
        assert traced[engine].rows == plain[engine].rows
        assert (traced[engine].ledger.as_dict()
                == plain[engine].ledger.as_dict())
        traced[engine].trace.reconcile(traced[engine].ledger)
    # both engines attribute per-operator work to the same span tree
    it_spans = traced["iterator"].trace.operator_root.to_dict()
    vec_spans = traced["vector"].trace.operator_root.to_dict()
    assert _span_shape(it_spans) == _span_shape(vec_spans)
    assert _total_batches(vec_spans) > 0
    assert _total_batches(it_spans) == 0


def _span_shape(span):
    return (span["name"], span["actual_rows"],
            [_span_shape(child) for child in span.get("children", [])])


def _total_batches(span):
    return (span.get("batches", 0)
            + sum(_total_batches(c) for c in span.get("children", [])))


def _fresh_faulty_db():
    db = _distributed_db()
    db.set_fault_plan(
        FaultPlan(drop_rate=0.3, truncate_rate=0.1),
        seed=42,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.01),
    )
    return db


def test_fault_injected_runs_identical():
    """Retries under an identical fault schedule charge identically:
    shipping drains fully before transfer, so the injector's RNG sees
    the same message sequence from both engines."""
    _key, sql = WORKLOADS["distributed"][1][0]
    results = {}
    for engine in ENGINES:
        db = _fresh_faulty_db()  # fresh injector RNG per engine
        config = _regime_config(db, {})
        results[engine] = (_run(db, sql, config, engine),
                           db.network.stats.as_dict())
    base, base_stats = results["iterator"]
    vec, vec_stats = results["vector"]
    assert vec.rows == base.rows
    assert vec.ledger.as_dict() == base.ledger.as_dict()
    assert vec_stats == base_stats  # same retries, same drops


def test_memory_budget_parity():
    """A budget that kills the hash build kills it under both engines;
    a sufficient one yields identical ledgers."""
    db = _db("star")
    config = _regime_config(db, REGIMES["low_memory_hash_only"])
    _key, sql = WORKLOADS["star"][1][3]  # three_way join
    for engine in ENGINES:
        with pytest.raises(ResourceExhausted):
            _run(db, sql, config, engine, memory_budget_bytes=1024)
    ok = {e: _run(db, sql, config, e, memory_budget_bytes=64 * 1024 * 1024)
          for e in ENGINES}
    assert ok["vector"].rows == ok["iterator"].rows
    assert (ok["vector"].ledger.as_dict()
            == ok["iterator"].ledger.as_dict())


def test_deadline_parity():
    """Both engines honor the cooperative deadline (the vector engine
    counts bulk CPU steps toward the same check cadence)."""
    db = _db("star")
    config = _regime_config(db, {})
    sql = ("SELECT C.region, SUM(S.amount) AS revenue "
           "FROM Sales S, Customer C WHERE S.cust_id = C.cust_id "
           "GROUP BY C.region")
    for engine in ENGINES:
        with pytest.raises(QueryTimeout):
            _run(db, sql, config, engine, timeout=1e-9)


def test_udf_invocation_counts_identical():
    """FunctionJoin invocation charges (the paper's AvailCost_F side
    effects) are engine-independent."""
    db = _db("udf")
    config = _regime_config(db, {})
    for _key, sql in WORKLOADS["udf"][1]:
        base = _run(db, sql, config, "iterator")
        vec = _run(db, sql, config, "vector")
        assert vec.rows == base.rows
        assert (vec.ledger.as_dict()["fn_invocations"]
                == base.ledger.as_dict()["fn_invocations"])


def test_prepared_statement_vector_engine():
    """The prepared/plan-cache path respects Options.engine too."""
    db = _db("empdept")
    stmt = db.prepare("SELECT E.eid, E.sal FROM Emp E WHERE E.sal > ?")
    base = stmt.execute([50000], options=Options(engine="iterator"))
    vec = stmt.execute([50000], options=Options(engine="vector"))
    assert vec.rows == base.rows
    assert vec.ledger.as_dict() == base.ledger.as_dict()
    assert vec.cached_plan


def test_degraded_failover_parity():
    """Site-loss degradation (mark down, re-optimize, retry) produces
    the same answer and the same degradation events under both engines."""
    _key, sql = WORKLOADS["distributed"][1][2]  # remote_agg
    results = {}
    for engine in ENGINES:
        db = _distributed_db()
        db.add_site("siteC")
        db.catalog.add_replica("Cust", "siteC")
        db.set_fault_plan(
            FaultPlan(down_sites=frozenset({"siteB"})), seed=0,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001),
        )
        config = _regime_config(db, {})
        result = db.sql(sql, config=config, options=Options(engine=engine))
        results[engine] = (result,
                           [(e.site, e.fallback_sites)
                            for e in db.degradation_events])
    base, base_events = results["iterator"]
    vec, vec_events = results["vector"]
    assert vec.rows == base.rows
    assert vec.ledger.as_dict() == base.ledger.as_dict()
    assert vec_events == base_events and base_events


# ------------------------------------------------------------ Filter Join

def _keyed_db():
    """A small production side P and a 5 000-row inner R sharing int
    (negative, beyond 2^32, NULL-bearing), string, float and two-column
    join keys."""
    rng = random.Random(5)
    ints = [None, -7, -1, 0, 3, 2 ** 40, -2 ** 40]
    names = ["n%03d" % i for i in range(120)]
    floats = [0.0, -0.0, 1.5, 2.5, None]
    db = Database()
    db.create_table(
        "P", [("pid", DataType.INT), ("k", DataType.INT),
              ("g", DataType.INT), ("name", DataType.STR),
              ("w", DataType.FLOAT)],
        rows=[(i, rng.choice(ints + list(range(10, 40))), rng.randrange(4),
               rng.choice(names[:40] + [None]), rng.choice(floats))
              for i in range(60)])
    db.create_table(
        "R", [("rid", DataType.INT), ("k", DataType.INT),
              ("g", DataType.INT), ("name", DataType.STR),
              ("w", DataType.FLOAT), ("v", DataType.INT)],
        rows=[(i, rng.choice(ints + list(range(-50, 200))),
               rng.randrange(6), rng.choice(names + [None]),
               rng.choice(floats + [3.5]), rng.randrange(1000))
              for i in range(5000)])
    return db


FILTER_JOIN_QUERIES = {
    "int": "SELECT P.pid, R.rid, R.v FROM P, R "
           "WHERE P.k = R.k AND P.g = 1",
    "str": "SELECT P.pid, R.rid FROM P, R "
           "WHERE P.name = R.name AND P.g < 2",
    "two_column": "SELECT P.pid, R.rid FROM P, R "
                  "WHERE P.k = R.k AND P.g = R.g",
    "str_and_int": "SELECT P.pid, R.rid FROM P, R "
                   "WHERE P.name = R.name AND P.k = R.k",
    "float": "SELECT P.pid, R.rid FROM P, R "
             "WHERE P.w = R.w AND P.g = 0 AND R.v < 50",
    "residual": "SELECT P.pid, R.rid FROM P, R "
                "WHERE P.k = R.k AND P.pid < R.v",
}

FILTER_EXTRAS = ("production_rows", "filter_set_size", "restricted_rows",
                 "measured_components")


def _filter_join_spans(span, out=None):
    out = [] if out is None else out
    if span.get("node_type") == "FilterJoinNode":
        out.append(span["extras"])
    for child in span.get("children", []):
        _filter_join_spans(child, out)
    return out


def _assert_filter_join_parity(base, vec, label):
    assert vec.rows == base.rows, label
    assert vec.ledger.as_dict() == base.ledger.as_dict(), (
        label, _ledger_diff(base, vec))
    spans = [_filter_join_spans(r.trace.operator_root.to_dict())
             for r in (base, vec)]
    assert spans[0] and len(spans[0]) == len(spans[1]), label
    for it_extras, vec_extras in zip(*spans):
        for name in FILTER_EXTRAS:
            assert vec_extras[name] == it_extras[name], (label, name)


@pytest.mark.parametrize("bloom_bits", (64 * 1024, 512))
@pytest.mark.parametrize("forced", ("filter_join", "bloom"))
def test_forced_filter_joins_identical(forced, bloom_bits):
    """Exact and lossy Filter Joins over every key kind: rows, ledger,
    Table 1 components and the filter-effectiveness counters agree.
    512 bits is small enough that false positives reach the final join."""
    db = _keyed_db()
    config = OptimizerConfig(forced_stored_join=forced,
                             bloom_bits=bloom_bits)
    for key, sql in FILTER_JOIN_QUERIES.items():
        runs = [_run(db, sql, config, engine, trace=True)
                for engine in ENGINES]
        assert find_nodes(runs[0].plan, FilterJoinNode), key
        _assert_filter_join_parity(*runs, label=(forced, bloom_bits, key))


@pytest.mark.parametrize("forced", ("filter_join", "bloom"))
def test_filter_join_recomputed_production_identical(forced):
    """``materialize_production=False`` runs the production subtree a
    second time for the final join, under both engines alike."""
    db = _keyed_db()
    config = OptimizerConfig(forced_stored_join=forced)
    plan, planner = db.plan(FILTER_JOIN_QUERIES["int"], config)
    for node in find_nodes(plan, FilterJoinNode):
        node.materialize_production = False
    base, vec = (db.run_plan(plan, planner.metrics, config=config,
                             engine=engine) for engine in ENGINES)
    assert vec.rows == base.rows
    assert vec.ledger.as_dict() == base.ledger.as_dict()


@pytest.mark.parametrize("forced", ("filter_join", "bloom"))
def test_filter_join_memory_budget_and_deadline_parity(forced):
    db = _keyed_db()
    config = OptimizerConfig(forced_stored_join=forced)
    sql = FILTER_JOIN_QUERIES["str"]
    for engine in ENGINES:
        with pytest.raises(ResourceExhausted):
            _run(db, sql, config, engine, memory_budget_bytes=512)
        with pytest.raises(QueryTimeout):
            _run(db, sql, config, engine, timeout=1e-9)
    ok = [_run(db, sql, config, engine, trace=True,
               memory_budget_bytes=64 * 1024 * 1024, timeout=60.0)
          for engine in ENGINES]
    _assert_filter_join_parity(*ok, label=forced)


def _kernel_counts(span, node_types, out=None):
    out = [] if out is None else out
    if span.get("node_type") in node_types:
        extras = span.get("extras", {})
        out.append((span["name"], extras.get("kernel_batches"),
                    extras.get("fallback_batches")))
    for child in span.get("children", []):
        _kernel_counts(child, node_types, out)
    return out


VIEW5 = ("SELECT C.region, P.category, SUM(S.amount) AS revenue, "
         "COUNT(*) AS n FROM Sales S, Customer C, Product P, Store T, "
         "CustSpend V WHERE S.cust_id = C.cust_id "
         "AND S.prod_id = P.prod_id AND S.store_id = T.store_id "
         "AND V.cust_id = C.cust_id AND V.total_spend > 101000 "
         "AND P.price > 100 GROUP BY C.region, P.category")


def test_view5_filter_join_and_joins_above_run_as_kernels():
    """The benchmark's view5 shape: a Bloom Filter Join under two hash
    joins and a GROUP BY. Its three batch-wise phases and every probe
    of the hash joins above it stay columnar."""
    db = Database()
    build_star(db, StarConfig(num_sales=30_000, seed=7))
    result = db.sql(VIEW5, options=Options(engine="vector", trace=True))
    root = result.trace.operator_root.to_dict()
    (_, kernel, fallback), = _kernel_counts(root, {"FilterJoinNode"})
    assert fallback == 0
    assert kernel >= 3  # filter-set build, >= 1 probe batch, final join

    def above(span, path):
        if span.get("node_type") == "FilterJoinNode":
            return path
        for child in span.get("children", []):
            found = above(child, path + [span])
            if found is not None:
                return found
        return None

    joins = [s for s in above(root, []) if s["node_type"] == "JoinNode"]
    assert len(joins) == 2
    for join in joins:
        assert join["extras"]["fallback_batches"] == 0, join["name"]
        assert join["extras"]["kernel_batches"] > 0, join["name"]


def test_figure1_filter_join_runs_as_kernels():
    """The magic (exact) Filter Join of the Figure-1 query: the filter
    set is built from typed columns and the final join probes sorted
    arrays. (The AVG inside the view may still fall back.)"""
    db = _db("empdept")
    config = OptimizerConfig(forced_view_join="filter_join")
    result = db.sql(MOTIVATING_QUERY, config=config,
                    options=Options(engine="vector", trace=True))
    counts = _kernel_counts(result.trace.operator_root.to_dict(),
                            {"FilterJoinNode"})
    assert counts
    for _, kernel, fallback in counts:
        assert fallback == 0 and kernel >= 2


def test_explain_analyze_says_when_a_key_forced_the_interpreted_path():
    db = _keyed_db()
    config = OptimizerConfig(forced_stored_join="filter_join")

    def filter_join_line(key):
        text = db.explain_analyze(FILTER_JOIN_QUERIES[key], config=config)
        return next(line for line in text.splitlines()
                    if "FilterJoin(" in line)

    # a two-column final key probes the bucket table, not sorted arrays
    assert "(1 of 2 batches interpreted)" in filter_join_line("two_column")
    assert "interpreted" not in filter_join_line("int")
