"""Execution helpers shared by all experiments.

The central object is :func:`run_query`, which plans and executes one
query under a given config and returns a :class:`Measured` record with
both the optimizer's estimate and the executor's measured ledger — the
estimate-vs-measured pairing every experiment reports.

:data:`STRATEGIES` names the evaluation strategies the paper contrasts
for a query joining a view (Figure 6's view column), each expressed as
an optimizer-config transformer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..database import Database, QueryResult
from ..ledger import CostLedger
from ..obs.querylog import QueryLogEntry
from ..optimizer.config import OptimizerConfig
from ..optimizer.planner import Planner, PlannerMetrics
from ..optimizer.plans import PlanNode


@dataclass
class Measured:
    """One (query, config) execution with estimates and measurements."""

    result: QueryResult
    plan: PlanNode
    metrics: PlannerMetrics
    estimated_cost: float
    measured_cost: float
    optimize_seconds: float

    @property
    def rows(self):
        return self.result.rows

    @property
    def ledger(self) -> CostLedger:
        return self.result.ledger

    @property
    def trace(self):
        """The execution's span tree."""
        return self.result.trace

    @property
    def cost_q_error(self) -> float:
        """q-error of total estimated vs. measured cost (inf when one
        side is zero and the other is not)."""
        est, measured = self.estimated_cost, self.measured_cost
        if est <= 0 or measured <= 0:
            return 1.0 if est == measured else float("inf")
        return max(est / measured, measured / est)

    @property
    def max_row_q_error(self) -> float:
        """Worst per-operator cardinality q-error."""
        return self.result.trace.max_q_error


def run_query(db: Database, sql: str,
              config: Optional[OptimizerConfig] = None) -> Measured:
    """Plan + execute; returns estimates and measurements together.

    The execution's span tree is ``measured.trace``, so experiments can
    report per-operator est-vs-actual columns without re-instrumenting
    anything.
    """
    config = config or db.config
    started = time.perf_counter()
    plan, planner = db.plan(sql, config)
    optimize_seconds = time.perf_counter() - started
    result = db.run_plan(plan, planner.metrics, config,
                         record=QueryLogEntry(sql))
    return Measured(
        result=result,
        plan=plan,
        metrics=planner.metrics,
        estimated_cost=plan.est_cost,
        measured_cost=result.ledger.total(config.cost_params),
        optimize_seconds=optimize_seconds,
    )


def plan_only(db: Database, sql: str,
              config: Optional[OptimizerConfig] = None):
    """Optimize without executing (for complexity experiments).

    Plans with a ``Planner`` of its own rather than ``db.plan``: the
    database's planners share its restriction memo, and the nested-
    optimization counts the experiments report are per statement, cold.
    """
    config = config or db.config
    started = time.perf_counter()
    planner = Planner(db.catalog, config)
    plan = planner.plan(db.bind(sql))
    return plan, planner, time.perf_counter() - started


# The strategies the paper contrasts for joining a virtual relation.
STRATEGIES: Dict[str, Callable[[OptimizerConfig], OptimizerConfig]] = {
    # full computation of the view + classic join (no magic at all)
    "full-computation": lambda c: c.replace(forced_view_join="full"),
    # correlated per-tuple evaluation (nested iteration / repeated probe)
    "nested-iteration": lambda c: c.replace(
        forced_view_join="nested_iteration"),
    # magic sets as a forced rewrite (exact filter join, always applied)
    "filter-join": lambda c: c.replace(forced_view_join="filter_join"),
    # lossy filter join (Bloom filter)
    "bloom-filter-join": lambda c: c.replace(forced_view_join="bloom"),
    # the paper's contribution: the optimizer picks by cost
    "cost-based": lambda c: c,
}


def run_strategies(db: Database, sql: str,
                   base_config: Optional[OptimizerConfig] = None,
                   names=None) -> Dict[str, Measured]:
    """Run the query once per strategy; asserts all agree on the answer."""
    base = base_config or OptimizerConfig()
    outputs: Dict[str, Measured] = {}
    reference = None
    for name in (names or STRATEGIES):
        config = STRATEGIES[name](base)
        measured = run_query(db, sql, config)
        key = frozenset_rows(measured.rows)
        if reference is None:
            reference = key
        elif key != reference:
            raise AssertionError(
                "strategy %r returned different rows" % name
            )
        outputs[name] = measured
    return outputs


def frozenset_rows(rows):
    """Order-insensitive, duplicate-preserving row-set key."""
    counts = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    return frozenset(counts.items())
