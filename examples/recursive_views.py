"""Recursive queries: WITH RECURSIVE, recursive views, and the
cost-based magic-sets decision over the fixpoint.

Builds an org-chart edge table, computes its transitive closure with a
recursive CTE, registers the same closure as a CREATE RECURSIVE VIEW,
then shows how the optimizer prices the magic-restricted fixpoint
against the full one — and how ``db.why_not`` explains the choice.

Run:  python examples/recursive_views.py
"""

import repro
from repro import DataType, Options, OptimizerConfig

# (manager, report): a binary org chart of 120 employees under CEO 1
REPORTS_TO = [(i // 2, i) for i in range(2, 121)]

CLOSURE = """
WITH RECURSIVE chain(boss, emp) AS (
  SELECT mgr, emp FROM ReportsTo
  UNION
  SELECT c.boss, r.emp FROM chain c, ReportsTo r WHERE c.emp = r.mgr
)
SELECT boss, emp FROM chain%s ORDER BY boss, emp
"""


def main():
    db = repro.connect()
    db.create_table("ReportsTo", [("mgr", DataType.INT),
                                  ("emp", DataType.INT)])
    db.insert("ReportsTo", REPORTS_TO)
    db.analyze()

    # -- 1. transitive closure with a recursive CTE -------------------
    everyone = db.sql(CLOSURE % "")
    print("full closure: %d (boss, emp) pairs" % len(everyone.rows))

    # -- 2. a binding restricts the fixpoint via magic sets -----------
    under_three = db.sql(CLOSURE % " WHERE boss = 3")
    print("reports under 3:", len(under_three.rows))
    print()
    print("bounded-reachability plan (note the MagicFixpoint seed "
          "filter):")
    print(under_three.plan.explain())
    print()

    # -- 3. why_not explains the costed pair --------------------------
    print(db.why_not(CLOSURE % " WHERE boss = 3", "fixpoint").render())
    print()

    # -- 4. the same closure as a recursive view ----------------------
    db.create_view(
        "Chain",
        "SELECT mgr, emp FROM ReportsTo"
        " UNION"
        " SELECT c.boss, r.emp FROM Chain c, ReportsTo r"
        " WHERE c.emp = r.mgr",
        column_aliases=("boss", "emp"),
        recursive=True,
    )
    via_view = db.sql("SELECT boss, emp FROM Chain WHERE boss = 3"
                      " ORDER BY boss, emp")
    assert via_view.rows == under_three.rows
    print("recursive view Chain agrees with the CTE")

    # -- 5. both sides of the costed pair, same rows ------------------
    full = db.sql(CLOSURE % " WHERE boss = 3",
                  config=OptimizerConfig(forced_recursive="full"))
    assert full.rows == under_three.rows
    print("forced full fixpoint agrees with the magic-restricted one "
          "(%.1f vs %.1f measured)"
          % (full.measured_cost(), under_three.measured_cost()))

    # -- 6. runaway recursion is bounded ------------------------------
    db.create_table("Ring", [("src", DataType.INT), ("dst", DataType.INT)])
    db.insert("Ring", [(1, 2), (2, 3), (3, 1)])
    db.analyze()
    divergent = (
        "WITH RECURSIVE walk(x, y) AS ("
        " SELECT src, dst FROM Ring"
        " UNION ALL"
        " SELECT w.x, r.dst FROM walk w, Ring r WHERE w.y = r.src)"
        " SELECT x, y FROM walk"
    )
    try:
        db.sql(divergent, options=Options(max_fixpoint_iterations=100))
    except repro.FixpointLimitExceeded as exc:
        print("UNION ALL over a cycle stopped by the iteration limit:",
              exc)


if __name__ == "__main__":
    main()
