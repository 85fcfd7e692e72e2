"""Quickstart: the paper's motivating query, end to end.

Creates the Emp/Dept schema of Figure 1, defines the DepAvgSal view,
and runs the motivating query three ways: letting the cost-based
optimizer choose, forcing full view computation, and forcing the magic
(Filter Join) strategy. Prints plans and measured costs.

Run:  python examples/quickstart.py
"""

import repro
from repro import Database, OptimizerConfig

SCHEMA = """
CREATE TABLE Dept (did INT, budget INT);
CREATE TABLE Emp (eid INT, did INT, sal INT, age INT);
CREATE VIEW DepAvgSal AS (
    SELECT E.did, AVG(E.sal) AS avgsal
    FROM Emp E
    GROUP BY E.did
);
"""

QUERY = """
SELECT E.did, E.sal, V.avgsal
FROM Emp E, Dept D, DepAvgSal V
WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
  AND E.age < 30 AND D.budget > 100000
"""


def load_data(db: Database) -> None:
    """A small deterministic dataset: 60 departments, 20 employees each;
    only departments 1-5 are 'big'."""
    db.insert("Dept", [
        (did, 150_000 if did <= 5 else 50_000) for did in range(1, 61)
    ])
    rows = []
    eid = 0
    for did in range(1, 61):
        for k in range(20):
            eid += 1
            age = 25 if k % 4 == 0 else 40      # 25% young
            sal = 40_000 + (eid * 7919) % 60_000
            rows.append((eid, did, sal, age))
    db.insert("Emp", rows)
    db.catalog.table("Emp").cluster_by("did")
    db.create_index("Emp", "did")
    db.analyze()


def main() -> None:
    db = repro.connect()
    db.execute_script(SCHEMA)
    load_data(db)

    print("=" * 72)
    print("Cost-based plan (the optimizer prices the Filter Join itself):")
    print("=" * 72)
    print(db.explain(QUERY))

    for label, config in [
        ("cost-based", OptimizerConfig()),
        ("forced full computation", OptimizerConfig(forced_view_join="full")),
        ("forced filter join (magic)", OptimizerConfig(
            forced_view_join="filter_join")),
        ("forced nested iteration", OptimizerConfig(
            forced_view_join="nested_iteration")),
    ]:
        result = db.sql(QUERY, config=config)
        print()
        print("%-28s -> %3d rows, measured cost %8.1f  (%s)" % (
            label, len(result), result.measured_cost(),
            result.ledger,
        ))

    result = db.sql(QUERY + " ORDER BY did, sal LIMIT 5")
    print()
    print("First five answers (did, sal, avgsal):")
    for row in result:
        print("   %4d  %6d  %10.2f" % row)

    # every query keeps its operators' actuals: the span tree is built
    # from them on first read and accounts for the whole measured cost
    result.trace.reconcile(result.ledger)
    print()
    print("measured cost %.1f over %d operator spans"
          % (result.measured_cost(),
             len(list(result.trace.operator_spans()))))


if __name__ == "__main__":
    main()
