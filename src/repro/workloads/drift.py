"""A seeded drift workload: the data shifts, the statistics go stale,
the adaptive loop recovers.

Two tables — ``Orders`` (2000 rows, indexed on ``cust_id``, never
changes) and ``Customers`` (whose ``segment`` distribution churns) —
and one join query restricted to ``segment = 1``. Because row and page
counts never move, every plan change below is *purely* a statistics
decision: exactly the thing the adaptive loop exists to keep fresh.

1. **baseline** — only a handful of customers sit in segment 1; the
   analyzed statistics say so, and the optimizer picks the paper's
   filter join (plan A): the tiny segment produces a small filter set
   that restricts the big ``Orders`` side through its index.
2. **shift** — an UPDATE moves *every* customer into segment 1. The
   statistics still say "rare", so the planner keeps the filter join —
   now a bad plan driving 200 index probes. The queries record
   est≈5 vs actual≈200 on the ``Customers`` scan; the drift recorder
   attributes the q-error to ``Customers``; the adaptive policy crosses
   its threshold, re-analyzes the table (the new statistics shed the
   cached plan), and the next planning pass picks a plain
   hash join (plan B).
3. **shift back** — the update is reverted. The statistics are stale in
   the *other* direction (est≈200 vs actual≈5), the loop fires again,
   and the plan returns to the filter join (plan A).

Everything is seeded and count-based — no wall-clock values — so
:func:`run_drift_narrative` output is pinned byte-for-byte by
``tests/golden/adaptive__narrative.txt``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..database import Database
from ..options import Options
from ..storage.schema import DataType

#: the narrative's probe query: segment-1 customers joined to their
#: orders — the filter join wins exactly when segment 1 is rare
DRIFT_QUERY = (
    "SELECT C.region, COUNT(*) AS n "
    "FROM Orders O, Customers C "
    "WHERE O.cust_id = C.cust_id AND C.segment = 1 "
    "GROUP BY C.region"
)

REGION_NAMES = ["north", "south", "east", "west"]


@dataclass
class DriftConfig:
    num_customers: int = 200
    hot_customers: int = 5       # customers in segment 1 at baseline
    segment_values: int = 40     # segment domain for everyone else
    num_orders: int = 2000
    seed: int = 11


def build_drift(db: Database, config: Optional[DriftConfig] = None
                ) -> Database:
    """Create and load the baseline state into ``db``; returns ``db``."""
    config = config or DriftConfig()
    rng = random.Random(config.seed)
    db.create_table("Customers", [
        ("cust_id", DataType.INT),
        ("region", DataType.STR),
        ("segment", DataType.INT),
    ])
    db.create_table("Orders", [
        ("order_id", DataType.INT),
        ("cust_id", DataType.INT),
        ("amount", DataType.INT),
    ])
    db.create_index("Orders", "cust_id")
    db.insert("Customers", [
        (cid, rng.choice(REGION_NAMES),
         1 if cid <= config.hot_customers
         else rng.randint(2, config.segment_values))
        for cid in range(1, config.num_customers + 1)
    ])
    db.insert("Orders", [
        (order_id, rng.randint(1, config.num_customers),
         rng.randint(5, 900))
        for order_id in range(1, config.num_orders + 1)
    ])
    db.analyze()
    return db


def fresh_drift(config: Optional[DriftConfig] = None,
                **db_kwargs) -> Database:
    return build_drift(Database(**db_kwargs), config)


def plan_signature(db: Database, sql: str = DRIFT_QUERY) -> str:
    """The chosen join method plus the base-table access order, e.g.
    ``filter_join:Customers>Orders`` or ``hash:Orders>Customers`` — a
    compact, stable fingerprint of the optimizer's decision. Synthetic
    relations (filter sets) are excluded so the signature only names
    catalog tables."""
    from ..optimizer.plans import FilterJoinNode

    plan, _ = db.plan(sql)
    names: List[str] = []
    methods: List[str] = []

    def walk(node):
        if isinstance(node, FilterJoinNode):
            methods.append("bloom" if node.lossy else "filter_join")
        relation = getattr(node, "relation", None)
        table = getattr(relation, "table", None)
        name = getattr(table, "name", None)
        if name is not None and db.catalog.has_table(name):
            names.append(name)
        for child in node.children():
            walk(child)

    walk(plan)
    method = methods[0] if methods else "hash"
    return "%s:%s" % (method, ">".join(names))


def run_drift_narrative(db: Optional[Database] = None,
                        config: Optional[DriftConfig] = None
                        ) -> Tuple[List[str], Database]:
    """Run the three-phase drift story; returns (narrative lines, db).

    The lines contain only seed-determined values (row counts, plan
    signatures, q-errors) so tests can pin them as a golden file.
    """
    from ..obs.adaptive import AdaptivePolicy

    config = config or DriftConfig()
    if db is None:
        db = fresh_drift(config)
    policy = AdaptivePolicy(qerror_threshold=4.0, min_samples=3,
                            cooldown_queries=0)
    probe = Options(adaptive=policy, use_cache=True)
    lines: List[str] = []

    def run_until_action(phase: str, max_queries: int = 10) -> None:
        """Probe with queries until the adaptive loop fires."""
        before = len(db.adaptive.actions)
        for attempt in range(1, max_queries + 1):
            db.sql(DRIFT_QUERY, options=probe)
            if len(db.adaptive.actions) > before:
                action = db.adaptive.actions[-1]
                lines.append(
                    "  query %d: adaptive re-analyzed %s "
                    "(mean q-error %.1f over %d samples -> %.1f)"
                    % (attempt, action.table, action.before_q,
                       action.samples,
                       action.after_q if action.after_q is not None
                       else float("nan")))
                return
        lines.append("  no adaptive action after %d queries (%s)"
                     % (max_queries, phase))

    # ---- phase 1: baseline --------------------------------------------
    baseline = plan_signature(db)
    lines.append("phase 1: baseline — %d of %d customers in segment 1, "
                 "analyzed" % (config.hot_customers,
                               config.num_customers))
    lines.append("  plan: %s" % baseline)

    # ---- phase 2: shift -----------------------------------------------
    db.sql("UPDATE Customers SET segment = 1 WHERE cust_id > %d"
           % config.hot_customers)
    lines.append("phase 2: shift — every customer moves to segment 1, "
                 "statistics stale")
    lines.append("  plan (stale stats): %s" % plan_signature(db))
    run_until_action("shift")
    lines.append("  plan (fresh stats): %s" % plan_signature(db))

    # ---- phase 3: shift back ------------------------------------------
    db.sql("UPDATE Customers SET segment = 2 WHERE cust_id > %d"
           % config.hot_customers)
    lines.append("phase 3: shift back — segment 1 is rare again, "
                 "statistics stale again")
    lines.append("  plan (stale stats): %s" % plan_signature(db))
    run_until_action("shift back")
    recovered = plan_signature(db)
    lines.append("  plan (fresh stats): %s" % recovered)
    lines.append("recovered: %s"
                 % ("yes — plan returned to baseline"
                    if recovered == baseline else
                    "NO — plan did not return to baseline"))
    return lines, db
