"""Execution differential suite: the executor vs a frozen snapshot.

For every query in the golden corpus the executor must return the
**same rows** and charge the **same cost ledger** (pages, CPU,
messages, invocations — to the last fraction) as the checked-in
``tests/golden/exec__*.txt`` snapshots, under every optimizer regime,
including UDF, distributed, fault-injected and forced Filter Join
paths. The snapshots were written while a tuple-at-a-time twin of every
operator still existed and produced them too, so they pin what both
implementations agreed on. Refresh with ``--update-golden`` only for an
intentional change to the cost formulas.

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
from repro.distributed.network import FaultPlan, RetryPolicy
from repro.optimizer.plans import FilterJoinNode, FunctionJoinNode
from repro.workloads import MOTIVATING_QUERY, StarConfig, build_star

from tests.test_planner_basic import find_nodes
from tests.test_plan_golden import (
    REGIMES,
    WORKLOADS,
    _distributed_db,
    _regime_config,
    _workload_db as _db,
    check_golden,
    exec_entry,
)


def _run(db, sql, config, **fields):
    return db.sql(sql, config=config, options=Options(**fields))


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rows_and_ledger_identical(workload, regime, update_golden):
    """The core differential: the frozen rows and ledger for every
    (workload, regime, query) triple."""
    db = _db(workload)
    config = _regime_config(db, REGIMES[regime])
    text = "\n".join(
        exec_entry("%s: %s" % (key, " ".join(sql.split())),
                   _run(db, sql, config))
        for key, sql in WORKLOADS[workload][1])
    check_golden("exec__%s__%s" % (workload, regime), text, update_golden)


def test_every_run_reconciles_and_counts_batches():
    """A repeat run charges the same ledger, each run's span tree
    reconciles with its ledger, and spans carry real batch counters."""
    db = _db("star")
    config = _regime_config(db, REGIMES["default"])
    _key, sql = WORKLOADS["star"][1][4]  # sales_by_region aggregate
    first = _run(db, sql, config)
    again = _run(db, sql, config)
    assert again.rows == first.rows
    assert again.ledger.as_dict() == first.ledger.as_dict()
    for result in (first, again):
        result.trace.reconcile(result.ledger)
        assert _total_batches(result.trace.operator_root.to_dict()) > 0
        # every batch's charge lands on the scan that made it
        scans = [s for s in result.trace.operator_spans()
                 if s.node_type == "SeqScanNode" and s.batches > 1]
        assert scans and all(s.self_ledger.tuple_cpu >= s.actual_rows
                             for s in scans)


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


def test_fault_injected_runs_identical(update_golden):
    """Retries under a seeded fault schedule charge the frozen ledger:
    shipping drains fully before transfer, so the injector's RNG sees
    one message sequence however the child produced its rows."""
    _key, sql = WORKLOADS["distributed"][1][0]
    db = _fresh_faulty_db()
    result = _run(db, sql, _regime_config(db, {}))
    assert result.rows == _run(_db("distributed"), sql, None).rows
    stats = db.network.stats.as_dict()  # same retries, same drops
    assert stats["retries"] > 0
    check_golden("exec__fault_injected",
                 exec_entry(_key, result, sorted(stats.items())),
                 update_golden)


def test_memory_budget_parity():
    """A budget that kills the hash build raises the typed error; a
    sufficient one leaves rows and ledger exactly as unbudgeted."""
    db = _db("star")
    config = _regime_config(db, REGIMES["low_memory_hash_only"])
    _key, sql = WORKLOADS["star"][1][3]  # three_way join
    with pytest.raises(ResourceExhausted):
        _run(db, sql, config, memory_budget_bytes=1024)
    ok = _run(db, sql, config, memory_budget_bytes=64 * 1024 * 1024)
    free = _run(db, sql, config)
    assert ok.rows == free.rows
    assert ok.ledger.as_dict() == free.ledger.as_dict()


def test_deadline_parity():
    """The cooperative deadline is honored: bulk CPU charges count as
    that many steps toward the check cadence."""
    db = _db("star")
    config = _regime_config(db, {})
    sql = ("SELECT C.region, SUM(S.amount) AS revenue "
           "FROM Sales S, Customer C WHERE S.cust_id = C.cust_id "
           "GROUP BY C.region")
    with pytest.raises(QueryTimeout):
        _run(db, sql, config, timeout=1e-9)


def test_udf_invocation_counts_identical():
    """FunctionJoin invocation charges (the paper's AvailCost_F side
    effects) equal the calls the Python function actually received."""
    db = _db("udf")
    for _key, sql in WORKLOADS["udf"][1]:
        result = _run(db, sql, None)
        node, = find_nodes(result.plan, FunctionJoinNode)
        relation = node.function_relation
        per_call = relation.cost_per_invocation * (
            relation.locality_factor if node.mode == "filter" else 1.0)
        assert relation.call_log
        assert (result.ledger.fn_invocations
                == len(relation.call_log) * per_call)


def test_udf_call_log_covers_one_execution_of_a_cached_plan():
    """The call log lives on the plan; a cached plan run twice reports
    the current execution's calls, not the sum of both."""
    db = WORKLOADS["udf"][0]()
    _key, sql = WORKLOADS["udf"][1][0]
    handle = db.prepare(sql)
    runs = [handle.execute() for _ in range(2)]
    assert all(result.cached_plan for result in runs)
    node, = find_nodes(handle.plan, FunctionJoinNode)
    relation = node.function_relation
    per_call = relation.cost_per_invocation * (
        relation.locality_factor if node.mode == "filter" else 1.0)
    assert relation.call_log
    assert runs[0].ledger.as_dict() == runs[1].ledger.as_dict()
    assert (runs[1].ledger.fn_invocations
            == len(relation.call_log) * per_call)


def test_prepared_statement_vector_engine():
    """The prepared/plan-cache path executes like the ad-hoc one."""
    db = _db("empdept")
    stmt = db.prepare("SELECT E.eid, E.sal FROM Emp E WHERE E.sal > ?")
    adhoc = db.sql("SELECT E.eid, E.sal FROM Emp E WHERE E.sal > 50000")
    stmt.execute([50000])
    cached = stmt.execute([50000])
    assert cached.rows == adhoc.rows
    assert cached.ledger.as_dict() == adhoc.ledger.as_dict()
    assert cached.cached_plan


def test_degraded_failover_parity(update_golden):
    """Site-loss degradation (mark down, re-optimize, retry) produces
    the fault-free answer, the frozen ledger and one degradation event."""
    _key, sql = WORKLOADS["distributed"][1][2]  # remote_agg
    db = _distributed_db()
    db.add_site("siteC")
    db.catalog.add_replica("Cust", "siteC")
    db.set_fault_plan(
        FaultPlan(down_sites=frozenset({"siteB"})), seed=0,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001),
    )
    result = _run(db, sql, _regime_config(db, {}))
    assert sorted(result.rows) == sorted(
        _run(_db("distributed"), sql, None).rows)
    events = [(e.site, e.fallback_sites) for e in db.degradation_events]
    assert events
    check_golden("exec__degraded_failover",
                 exec_entry(_key, result, [("events", events)]),
                 update_golden)


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


def _filter_join_entry(key, result):
    """Snapshot entry of a traced run: rows and ledger plus every
    Filter Join span's Table 1 components and effectiveness counters."""
    spans = _filter_join_spans(result.trace.operator_root.to_dict())
    assert spans, key
    return exec_entry(key, result, [
        ("span%d.%s" % (i, name), extras[name])
        for i, extras in enumerate(spans) for name in FILTER_EXTRAS])


@pytest.mark.parametrize("bloom_bits", (64 * 1024, 512))
@pytest.mark.parametrize("forced", ("filter_join", "bloom"))
def test_forced_filter_joins_identical(forced, bloom_bits, update_golden):
    """Exact and lossy Filter Joins over every key kind: rows, ledger,
    Table 1 components and the filter-effectiveness counters are the
    frozen ones. 512 bits is small enough that false positives reach
    the final join."""
    db = _keyed_db()
    config = OptimizerConfig(forced_stored_join=forced,
                             bloom_bits=bloom_bits)
    entries = []
    for key, sql in FILTER_JOIN_QUERIES.items():
        result = _run(db, sql, config)
        assert find_nodes(result.plan, FilterJoinNode), key
        entries.append(_filter_join_entry(key, result))
    check_golden("exec__filter_join__%s-%d" % (forced, bloom_bits),
                 "\n".join(entries), update_golden)


@pytest.mark.parametrize("forced", ("filter_join", "bloom"))
def test_filter_join_recomputed_production_identical(forced, update_golden):
    """``materialize_production=False`` runs the production subtree a
    second time for the final join: same rows as the materialized run,
    the frozen ledger."""
    db = _keyed_db()
    config = OptimizerConfig(forced_stored_join=forced)
    plan, planner = db.plan(FILTER_JOIN_QUERIES["int"], config)
    materialized = db.run_plan(plan, planner.metrics, config=config)
    for node in find_nodes(plan, FilterJoinNode):
        node.materialize_production = False
    result = db.run_plan(plan, planner.metrics, config=config)
    assert result.rows == materialized.rows
    check_golden("exec__filter_join_recomputed__%s" % forced,
                 exec_entry("int", result), update_golden)


@pytest.mark.parametrize("forced", ("filter_join", "bloom"))
def test_filter_join_memory_budget_and_deadline_parity(forced):
    db = _keyed_db()
    config = OptimizerConfig(forced_stored_join=forced)
    sql = FILTER_JOIN_QUERIES["str"]
    with pytest.raises(ResourceExhausted):
        _run(db, sql, config, memory_budget_bytes=512)
    with pytest.raises(QueryTimeout):
        _run(db, sql, config, timeout=1e-9)
    ok = _run(db, sql, config,
              memory_budget_bytes=64 * 1024 * 1024, timeout=60.0)
    # a budget and deadline that hold change nothing: this is the
    # entry test_forced_filter_joins_identical froze for "str"
    free = _run(db, sql, config)
    assert _filter_join_entry("str", ok) == _filter_join_entry("str", free)


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
    result = db.sql(VIEW5)
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
    result = db.sql(MOTIVATING_QUERY, config=config)
    counts = _kernel_counts(result.trace.operator_root.to_dict(),
                            {"FilterJoinNode"})
    assert counts
    for _, kernel, fallback in counts:
        assert fallback == 0 and kernel >= 2


@pytest.mark.parametrize("forced", ("filter_join", "bloom"))
def test_figure1_filter_join_reports_bloom_bits_only_when_lossy(forced):
    """An exact Filter Join has no Bloom filter, so its ``bloom_bits``
    extra is None; a Bloom Filter Join reports its node's size."""
    db = _db("empdept")
    config = OptimizerConfig(forced_view_join=forced)
    result = db.sql(MOTIVATING_QUERY, config=config)
    nodes = find_nodes(result.plan, FilterJoinNode)
    spans = [span for span in result.trace.operator_spans()
             if span.node_type == "FilterJoinNode"]
    assert nodes and len(spans) == len(nodes)
    assert any(node.lossy for node in nodes) is (forced == "bloom")
    for node, span in zip(nodes, spans):
        expected = node.bloom_bits if node.lossy else None
        assert span.extras.get("bloom_bits") == expected


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
