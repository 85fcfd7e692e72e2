"""Golden-plan regression tests.

Snapshots ``plan.explain()`` for a battery of canonical queries —
EmpDept, star-schema, UDF, and distributed — under three optimizer
regimes into ``tests/golden/``. Any planner change (costing tweak,
new rule, enumeration-order fix) now shows up as a reviewable diff
instead of a silent behavior shift.

To refresh after an intentional planner change::

    PYTHONPATH=src python -m pytest tests/test_plan_golden.py --update-golden

One golden file per (workload, regime) keeps diffs grouped by what
changed; each file holds every query's plan under a ``-- Qn:`` header.

The same corpus is also *executed* against ``exec__*.txt`` snapshots
(:func:`exec_entry` / :func:`check_golden`, driven from
``test_engine_differential.py``): row count, a digest of the sorted
rows and every ledger component per query.
"""

import hashlib
import pathlib
import random

import pytest

from repro import Database, DataType, OptimizerConfig, OptimizerTrace
from repro.distributed import DistributedDatabase, distributed_config
from repro.optimizer.planner import Planner
from repro.optimizer.plans import method_label
from repro.workloads import (
    EmpDeptConfig,
    GraphConfig,
    MOTIVATING_QUERY,
    StarConfig,
    build_graph,
    fresh_empdept,
    fresh_star,
    graph_edges,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: regime name -> OptimizerConfig overrides (applied on top of the
#: workload's base config, so distributed queries keep network weights)
REGIMES = {
    "default": {},
    "no_filter_join": {
        "enable_filter_join": False,
        "enable_bloom_filter": False,
    },
    "low_memory_hash_only": {
        "memory_pages": 8,
        "enable_index_nested_loops": False,
        "enable_merge_join": False,
        "enable_bloom_filter": False,
    },
}

EMPDEPT_QUERIES = [
    ("motivating", MOTIVATING_QUERY.strip()),
    ("young_filter", "SELECT E.eid, E.sal FROM Emp E WHERE E.age < 30"),
    ("index_probe", "SELECT E.eid FROM Emp E WHERE E.did = 7"),
    ("join_budget",
     "SELECT E.eid, D.budget FROM Emp E, Dept D "
     "WHERE E.did = D.did AND D.budget > 100000"),
    ("view_join",
     "SELECT E.eid, V.avgsal FROM Emp E, DepAvgSal V "
     "WHERE E.did = V.did AND E.age < 30"),
    ("group_avg",
     "SELECT E.did, AVG(E.sal) AS avgsal, COUNT(*) AS heads "
     "FROM Emp E GROUP BY E.did"),
    ("ordered_top",
     "SELECT E.eid, E.sal FROM Emp E WHERE E.sal > 50000 "
     "ORDER BY E.sal DESC LIMIT 10"),
    ("distinct_depts",
     "SELECT DISTINCT E.did FROM Emp E WHERE E.age < 30"),
]

STAR_QUERIES = [
    ("cust_spend",
     "SELECT C.region, V.total_spend FROM Customer C, CustSpend V "
     "WHERE C.cust_id = V.cust_id AND C.segment = 1"),
    ("product_volume",
     "SELECT P.category, V.total_qty FROM Product P, ProductVolume V "
     "WHERE P.prod_id = V.prod_id AND P.price > 400"),
    ("store_revenue",
     "SELECT S2.region, V.revenue FROM Store S2, StoreRevenue V "
     "WHERE S2.store_id = V.store_id AND S2.sqft > 40000"),
    ("three_way",
     "SELECT C.region, P.category, S.amount "
     "FROM Sales S, Customer C, Product P "
     "WHERE S.cust_id = C.cust_id AND S.prod_id = P.prod_id "
     "AND P.price > 450 AND C.segment = 2"),
    ("sales_by_region",
     "SELECT C.region, SUM(S.amount) AS revenue "
     "FROM Sales S, Customer C WHERE S.cust_id = C.cust_id "
     "GROUP BY C.region"),
    ("big_stores",
     "SELECT S2.store_id, S2.sqft FROM Store S2 "
     "WHERE S2.sqft > 45000 ORDER BY S2.sqft DESC"),
]

UDF_QUERIES = [
    ("square_join",
     "SELECT P.pid, F.xx FROM Pts P, square F WHERE P.x = F.x"),
    ("square_selective",
     "SELECT P.pid, F.xx FROM Pts P, square F "
     "WHERE P.x = F.x AND P.pid < 40"),
    ("square_distinct",
     "SELECT DISTINCT F.xx FROM Pts P, square F WHERE P.x = F.x"),
]

def _tc(table, where=""):
    return (
        "WITH RECURSIVE tc(x, y) AS ("
        "SELECT src, dst FROM %s "
        "UNION "
        "SELECT t.x, e.dst FROM tc t, %s e WHERE t.y = e.src) "
        "SELECT x, y FROM tc%s ORDER BY x, y"
        % (table, table, (" " + where) if where else "")
    )


# The recursive battery pins both sides of the DP's magic/fixpoint
# costed pair: bounded reachability on the sparse tree chooses the
# magic-restricted fixpoint, while on the dense near-complete graph
# (closure barely exceeds the base) the DP rejects magic because its
# extra iterations outweigh the restricted frontier.
RECURSIVE_QUERIES = [
    ("tc_full", _tc("Edge")),
    ("tc_bounded", _tc("Edge", "WHERE x = 1")),
    ("tc_bounded_in", _tc("Edge", "WHERE x IN (2, 3)")),
    ("tc_dense_bounded", _tc("DenseEdge", "WHERE x = 1")),
    ("tc_join_base",
     "WITH RECURSIVE tc(x, y) AS ("
     "SELECT src, dst FROM Edge "
     "UNION "
     "SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src) "
     "SELECT T.x, E.dst FROM tc T, Edge E "
     "WHERE T.y = E.src AND T.x = 1 ORDER BY E.dst"),
]

DISTRIBUTED_QUERIES = [
    ("remote_join",
     "SELECT O.oid, C.name FROM Orders O, Cust C "
     "WHERE O.cid = C.cid AND O.total > 900"),
    ("remote_selective",
     "SELECT O.oid, C.region FROM Orders O, Cust C "
     "WHERE O.cid = C.cid AND O.total > 990"),
    ("remote_agg",
     "SELECT C.region, COUNT(*) AS orders FROM Orders O, Cust C "
     "WHERE O.cid = C.cid GROUP BY C.region"),
]


def _empdept_db():
    return fresh_empdept(EmpDeptConfig(
        num_departments=40, employees_per_department=15,
        big_fraction=0.2, young_fraction=0.3, seed=11,
    ))


def _star_db():
    return fresh_star(StarConfig(num_sales=1500, seed=7))


def _udf_db():
    db = Database()
    db.create_table("Pts", [("pid", DataType.INT), ("x", DataType.INT)])
    db.insert("Pts", [(i, i % 10) for i in range(200)])
    db.analyze()
    db.functions.register_function(
        "square", [("x", DataType.INT)], [("xx", DataType.INT)],
        lambda args: [(args[0] * args[0],)],
        cost_per_invocation=2.0, locality_factor=0.5,
    )
    return db


def _distributed_db():
    rng = random.Random(1)
    db = DistributedDatabase(distributed_config(1.0, 0.001))
    db.create_table("Orders", [("oid", DataType.INT),
                               ("cid", DataType.INT),
                               ("total", DataType.INT)])
    db.create_table("Cust", [("cid", DataType.INT),
                             ("name", DataType.STR),
                             ("region", DataType.STR)], site="siteB")
    db.insert("Orders", [
        (i, rng.randint(1, 400), rng.randint(1, 1000))
        for i in range(1, 2001)
    ])
    db.insert("Cust", [
        (c, "n%d" % c, rng.choice(["east", "west"]))
        for c in range(1, 401)
    ])
    db.analyze()
    return db


def _recursive_db():
    db = Database()
    build_graph(db, GraphConfig("tree", num_nodes=60, branching=3))
    db.create_table("DenseEdge", [("src", DataType.INT),
                                  ("dst", DataType.INT)])
    db.insert("DenseEdge", graph_edges(
        GraphConfig("random", num_nodes=110, edge_prob=0.8, seed=5)))
    db.analyze()
    return db


WORKLOADS = {
    "empdept": (_empdept_db, EMPDEPT_QUERIES),
    "star": (_star_db, STAR_QUERIES),
    "udf": (_udf_db, UDF_QUERIES),
    "distributed": (_distributed_db, DISTRIBUTED_QUERIES),
    "recursive": (_recursive_db, RECURSIVE_QUERIES),
}

_DB_CACHE = {}


def _workload_db(name):
    if name not in _DB_CACHE:
        _DB_CACHE[name] = WORKLOADS[name][0]()
    return _DB_CACHE[name]


def _regime_config(db, overrides):
    config = db.config.replace(**overrides) if overrides else db.config
    config.validate()
    return config


def snapshot_text(db, queries, config, search=False) -> str:
    chunks = []
    for key, sql in queries:
        trace = OptimizerTrace() if search else None
        plan, _planner = db.plan(sql, config, search=trace)
        if trace is not None:
            assert trace.records, "search trace recorded nothing"
        chunks.append("-- %s: %s\n%s\n" % (
            key, " ".join(sql.split()), plan.explain(),
        ))
    return "\n".join(chunks)


def exec_entry(label, result, extras=()) -> str:
    """One executed query as snapshot text: row count, a digest of the
    rows sorted NULLs-first (set-iteration order must not leak in), and
    ``repr()`` of every ledger component plus any ``extras`` pairs."""
    rows = sorted(result.rows, key=lambda row: tuple(
        (value is not None, value) for value in row))
    lines = ["-- %s" % label, "rows: %d" % len(rows),
             "digest: %s" % hashlib.sha256(repr(rows).encode()).hexdigest()]
    lines += ["ledger.%s: %r" % item
              for item in result.ledger.as_dict().items()]
    lines += ["%s: %r" % item for item in extras]
    return "\n".join(lines) + "\n"


def check_golden(name, text, update_golden):
    golden_path = GOLDEN_DIR / (name + ".txt")
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(text)
        return
    assert golden_path.exists(), (
        "missing golden file %s — run with --update-golden to create it"
        % golden_path
    )
    assert text == golden_path.read_text(), (
        "snapshot %s changed; if intentional, refresh with "
        "--update-golden and review the diff" % name
    )


def test_coverage_floor():
    """The acceptance criterion: >=20 queries x 3 regimes."""
    total = sum(len(queries) for _build, queries in WORKLOADS.values())
    assert total >= 20
    assert len(REGIMES) == 3


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_plans(workload, regime, update_golden):
    db = _workload_db(workload)
    config = _regime_config(db, REGIMES[regime])
    text = snapshot_text(db, WORKLOADS[workload][1], config)
    check_golden("%s__%s" % (workload, regime), text, update_golden)


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_plans_identical_under_search_tracing(workload, regime):
    """Search tracing is observation only: with an OptimizerTrace
    attached, every golden plan must stay byte-identical."""
    db = _workload_db(workload)
    config = _regime_config(db, REGIMES[regime])
    golden_path = GOLDEN_DIR / ("%s__%s.txt" % (workload, regime))
    assert golden_path.exists(), (
        "missing golden file %s — run with --update-golden to create it"
        % golden_path
    )
    traced = snapshot_text(db, WORKLOADS[workload][1], config,
                           search=True)
    assert traced == golden_path.read_text(), (
        "search tracing perturbed the chosen plan for %s/%s"
        % (workload, regime)
    )


def _node_estimates(plan):
    """Every node of ``plan`` in preorder with its exact estimates."""
    out, stack = [], [plan]
    while stack:
        node = stack.pop()
        out.append((node.label(), node.est_rows, node.est_cost,
                    node.est_components, node.sort_order, node.site))
        stack.extend(reversed(node.children()))
    return out


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_lazily_built_plans_equal_traced_plans_exactly(workload, regime):
    """An untraced planner builds the nodes of the plan it returns only;
    a traced one builds every candidate's. Both must return the same
    plan to the last float, which ``explain()``'s rounding would not
    show, and each trace record's method must name its node."""
    db = _workload_db(workload)
    config = _regime_config(db, REGIMES[regime])
    for key, sql in WORKLOADS[workload][1]:
        lazy = Planner(db.catalog, config).plan(db.bind(sql))
        trace = OptimizerTrace()
        eager = Planner(db.catalog, config, trace=trace).plan(db.bind(sql))
        assert _node_estimates(lazy) == _node_estimates(eager), key
        assert trace.records, key
        for record in trace.records:
            assert record.method == method_label(record.node), \
                (key, record.seq)


def test_recursive_golden_pins_both_magic_decisions():
    """The default-regime recursive snapshot must witness the DP
    choosing the magic-restricted fixpoint on one query and rejecting
    it (full fixpoint under a residual filter) on another."""
    text = (GOLDEN_DIR / "recursive__default.txt").read_text()
    sections = {}
    for chunk in text.split("-- "):
        if chunk.strip():
            key = chunk.split(":", 1)[0]
            sections[key] = chunk
    assert "MagicFixpoint" in sections["tc_bounded"]
    assert "MagicFixpoint" not in sections["tc_dense_bounded"]
    assert "Fixpoint" in sections["tc_dense_bounded"]
    assert "MagicFixpoint" not in sections["tc_full"]


def test_snapshots_are_stable_within_process():
    """Planning the same battery twice yields identical text (guards
    against enumeration order leaking nondeterminism into plans)."""
    workload = "empdept"
    db = _workload_db(workload)
    config = _regime_config(db, REGIMES["default"])
    first = snapshot_text(db, WORKLOADS[workload][1], config)
    second = snapshot_text(db, WORKLOADS[workload][1], config)
    assert first == second
