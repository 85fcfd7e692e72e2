"""F4 — straight-line fit of restricted-inner cardinality (Figure 4).

Section 4.2 argues the restricted view's output cardinality is directly
proportional to the filter set's selectivity, so a straight line fitted
through a few equivalence classes predicts it for every other filter
size. We build the parametric coster for the motivating view, then
execute the restricted view against *real* filter sets of many sizes
and compare actual output cardinality with the line fit's prediction.
"""

from __future__ import annotations

import random

from ...executor.lowering import lower
from ...executor.runtime import FilterSet, RuntimeContext
from ...optimizer.config import OptimizerConfig
from ...optimizer.planner import Planner
from ...storage.schema import Column, DataType, Schema
from ...workloads.empdept import EmpDeptConfig, MOTIVATING_QUERY, fresh_empdept
from ..report import ExperimentResult, TextTable

EXPERIMENT_ID = "F4"
TITLE = "Cardinality via straight-line fit over equivalence classes"
PAPER_CLAIM = (
    "The cardinality of the filtered inner relation is directly "
    "proportional to the selectivity of the filter set; once a few "
    "equivalence classes are computed, 'a straight line can be fitted "
    "to them' (Section 4.2, Figure 4)."
)


def _actual_restricted_rows(db, coster, config, filter_values) -> int:
    """Execute the restricted-view template against a real filter set."""
    template = coster.template_for(float(len(filter_values)))
    ctx = RuntimeContext(params=config.cost_params,
                         memory_pages=config.memory_pages)
    schema = Schema([Column("did", DataType.INT)])
    ctx.bind_filter_set(
        coster.param_id,
        FilterSet(schema, rows=[(v,) for v in filter_values]))
    operator = lower(template, ctx)
    return len(list(operator.rows()))


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, TITLE, PAPER_CLAIM)
    num_departments = 120 if quick else 400
    db = fresh_empdept(EmpDeptConfig(
        num_departments=num_departments, employees_per_department=20,
        big_fraction=0.2, young_fraction=0.3, seed=31,
    ))
    config = OptimizerConfig(parametric_classes=4)
    planner = Planner(db.catalog, config)
    block = db.bind(MOTIVATING_QUERY)
    view = block.relation("V")
    coster = planner._coster_for(view, ["did"], lossy=False)
    coster.ensure_classes()

    rng = random.Random(5)
    domain = list(range(1, num_departments + 1))
    sweep = [1, 2, 5, 10, num_departments // 8, num_departments // 4,
             num_departments // 2, num_departments]
    table = TextTable(
        ["|filter set|", "predicted rows (line fit)", "actual rows",
         "relative error"],
        title="Line-fit prediction vs executed restricted view "
              "(%d anchor classes at %s)"
              % (len(coster.classes),
                 [int(c.anchor_rows) for c in coster.classes]),
    )
    errors = []
    for f in sweep:
        sample = rng.sample(domain, f)
        _, predicted = coster.estimate(float(f))
        actual = _actual_restricted_rows(db, coster, config, sample)
        error = abs(predicted - actual) / max(actual, 1)
        errors.append(error)
        table.add_row(f, predicted, actual, "%.1f%%" % (100 * error))
    result.add_table(table)
    result.add_finding(
        "mean relative cardinality error across the sweep: %.1f%% "
        "(the linearity assumption holds for this workload)"
        % (100 * sum(errors) / len(errors))
    )
    result.add_finding(
        "%d nested optimizations were needed in total; every further "
        "estimate is an O(1) interpolation (Assumption 1)"
        % coster.nested_optimizations
    )
    return result
