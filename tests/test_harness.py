"""Tests for the experiment harness (report, runners, registry)."""

import pytest

from repro import OptimizerConfig
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.report import ExperimentResult, TextTable, format_value
from repro.harness.runners import (
    STRATEGIES,
    frozenset_rows,
    plan_only,
    run_query,
    run_strategies,
)
from repro.workloads import EmpDeptConfig, MOTIVATING_QUERY, fresh_empdept

TINY = EmpDeptConfig(num_departments=20, employees_per_department=8,
                     seed=88)


class TestTextTable:
    def test_render_plain(self):
        table = TextTable(["a", "bb"], title="t")
        table.add_row(1, 2.5)
        text = table.render()
        assert "t" in text and "2.500" in text

    def test_render_markdown(self):
        table = TextTable(["a", "b"])
        table.add_row("x", None)
        text = table.render(markdown=True)
        assert text.startswith("| a")
        assert "| x" in text and "-" in text

    def test_arity_checked(self):
        table = TextTable(["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(0.0) == "0"
        assert format_value(1234.6) == "1235"
        assert format_value(12.34) == "12.3"
        assert format_value(1.2345) == "1.234"
        assert format_value("x") == "x"


class TestExperimentResult:
    def test_render_contains_sections(self):
        result = ExperimentResult("X1", "Title", "Claim text")
        table = TextTable(["c"])
        table.add_row(1)
        result.add_table(table)
        result.add_finding("a finding")
        plain = result.render()
        md = result.render(markdown=True)
        assert "X1" in plain and "Claim text" in plain
        assert "a finding" in plain
        assert md.startswith("## X1")


class TestRunners:
    def test_run_query_returns_estimates_and_measurements(self):
        db = fresh_empdept(TINY)
        measured = run_query(db, MOTIVATING_QUERY)
        assert measured.estimated_cost > 0
        assert measured.measured_cost > 0
        assert measured.metrics.plans_considered > 0
        assert measured.optimize_seconds >= 0

    def test_plan_only_does_not_execute(self):
        db = fresh_empdept(TINY)
        plan, planner, seconds = plan_only(db, MOTIVATING_QUERY)
        assert plan.est_cost > 0
        assert seconds >= 0

    def test_run_strategies_checks_agreement(self):
        db = fresh_empdept(TINY)
        outputs = run_strategies(db, MOTIVATING_QUERY)
        assert set(outputs) == set(STRATEGIES)
        row_sets = {frozenset_rows(m.rows) for m in outputs.values()}
        assert len(row_sets) == 1

    def test_frozenset_rows_preserves_duplicates(self):
        assert frozenset_rows([(1,), (1,)]) != frozenset_rows([(1,)])
        assert frozenset_rows([(1,), (2,)]) == frozenset_rows([(2,), (1,)])


class TestRegistry:
    def test_all_experiments_have_contract(self):
        from repro.harness.experiments import ALL_EXPERIMENTS
        seen_ids = set()
        for module in ALL_EXPERIMENTS:
            assert module.EXPERIMENT_ID not in seen_ids
            seen_ids.add(module.EXPERIMENT_ID)
            assert module.TITLE
            assert module.PAPER_CLAIM
            assert callable(module.run)

    def test_registry_covers_design_index(self):
        from repro.harness.experiments import ALL_EXPERIMENTS
        ids = {m.EXPERIMENT_ID for m in ALL_EXPERIMENTS}
        for required in ("F1/F2", "F3", "T1", "F4", "F5", "F6",
                         "C1", "C2", "C3", "C4", "C5", "C6", "C7",
                         "E1", "E2", "E3"):
            assert required in ids


# The paper's qualitative shape per experiment — who wins, by roughly
# what factor, where crossovers fall — checked on the quick run.

def _shape_fig1_fig2(result):
    # The Figure-2 decomposition is produced.
    rewriting_lines = "\n".join(
        row[0] for row in result.tables[0].rows
    )
    assert "PartialResult" in rewriting_lines
    assert "DISTINCT" in rewriting_lines


def _shape_fig3(result):
    table = result.tables[0]
    # The winning SIPS variant differs across scenarios (the paper's
    # point that each option may be optimal somewhere), and the
    # cost-based plan is never worse than the per-scenario winner by a
    # wide margin.
    winners = {row[-2] for row in table.rows}
    assert len(winners) >= 2, "at least two different SIPS variants win"
    for row in table.rows:
        variant_costs = [float(c) for c in row[1:-2]]
        cost_based = float(row[-1])
        assert cost_based <= min(variant_costs) * 1.25


def _shape_table1(result):
    from repro.harness.experiments import table1

    table = result.tables[0]
    rows = {row[0]: (float(row[1]), float(row[2])) for row in table.rows}
    # All seven components are present plus a TOTAL row.
    for component in table1.COMPONENTS:
        assert component in rows
    est_total, meas_total = rows["TOTAL"]
    # The component sums must equal the sum of the parts...
    assert est_total == sum(rows[c][0] for c in table1.COMPONENTS) \
        or abs(est_total - sum(rows[c][0] for c in table1.COMPONENTS)) < 1.0
    # ...and estimate and measurement agree to within 2x overall.
    assert 0.5 <= meas_total / est_total <= 2.0


def _shape_fig4(result):
    table = result.tables[0]
    errors = []
    for row in table.rows:
        predicted = float(row[1])
        actual = float(row[2])
        errors.append(abs(predicted - actual) / max(actual, 1.0))
    # The line fit tracks the true restricted cardinality closely (the
    # paper's proportionality argument), with mean error under 15%.
    assert sum(errors) / len(errors) < 0.15
    # Cardinality grows monotonically with the filter-set size.
    actuals = [float(row[2]) for row in table.rows]
    assert actuals == sorted(actuals)


def _shape_fig5(result):
    table = result.tables[0]
    class_rows = [row for row in table.rows if row[0] != "exact"]
    nested = [float(row[1]) for row in class_rows]
    errors = [float(row[3].rstrip("%")) for row in class_rows]
    # More classes -> more nested optimizations...
    assert nested == sorted(nested)
    assert nested[-1] > nested[0]
    # ...and (weakly) lower estimation error at the high end.
    assert errors[-1] <= errors[0]
    # The exact mode exists and has zero error by construction.
    exact_rows = [row for row in table.rows if row[0] == "exact"]
    assert exact_rows and exact_rows[0][3] == "0.0%"


def _shape_fig6(result):
    table = result.tables[0]
    matrix = {row[0]: row[1:] for row in table.rows}
    # Every strategy family has a populated cell in every domain, except
    # the lossy filter for UDFs (N/A in the paper's matrix too).
    assert matrix["repeated-probe"][3] != "-"
    assert matrix["filter-join"][3] != "-"
    assert matrix["lossy-filter"][3] == "-"

    def col(domain_index, strategy):
        return float(matrix[strategy][domain_index])

    # Repeated probing is the most expensive strategy for stored,
    # remote, and UDF inners at this (unselective-outer) setting. In the
    # view column the engine's "optimized nested iteration" (sorted
    # outer, one probe per distinct binding — Figure 6's w/OUTER-SORT
    # cell) makes correlation competitive, but never better than the
    # Filter Join by more than noise.
    for domain in (0, 1, 3):
        if matrix["repeated-probe"][domain] == "-":
            continue
        others = [
            col(domain, s) for s in ("full-computation", "filter-join")
        ]
        assert col(domain, "repeated-probe") > max(others)
    assert col(2, "repeated-probe") >= col(2, "filter-join") * 0.9
    # ...and the filter join wins the remote (semi-join) and UDF columns.
    assert col(1, "filter-join") < col(1, "full-computation")
    assert col(3, "filter-join") < col(3, "full-computation")


def _shape_c1_crossover(result):
    table = result.tables[0]
    first, last = table.rows[0], table.rows[-1]
    speedup_selective = float(first[3].rstrip("x"))
    speedup_unselective = float(last[3].rstrip("x"))
    # Magic wins clearly at low selectivity...
    assert speedup_selective > 1.5
    # ...and becomes pure overhead when everything qualifies.
    assert speedup_unselective < 1.0
    # The cost-based plan tracks the winner at both extremes.
    for row in (first, last):
        full = float(row[1])
        filter_join = float(row[2])
        cost_based = float(row[5])
        assert cost_based <= min(full, filter_join) * 1.1


def _shape_c2_complexity(result):
    chain = result.tables[0]
    ratios = [float(row[3].rstrip("x")) for row in chain.rows]
    # The plans-considered ratio does not grow with N — the asymptotic
    # complexity class is unchanged (it actually shrinks as the DP's own
    # exponential growth dominates the constant FJ factor).
    assert ratios[-1] <= ratios[0] * 1.5
    relax = result.tables[1]
    last = relax.rows[-1]
    lim12, lim1, nolim = (float(last[1]), float(last[2]), float(last[3]))
    # Relaxing Limitation 2 adds candidates; dropping both adds more.
    assert lim1 >= lim12
    assert nolim > lim1
    # Assumption 1: parametric classes keep nested view optimizations
    # far below exact per-candidate re-optimization, and the gap widens.
    assumption = result.tables[2]
    first, final = assumption.rows[0], assumption.rows[-1]
    assert float(first[1]) < float(first[2])
    assert float(final[1]) < float(final[2])
    gap_first = float(first[2]) / float(first[1])
    gap_final = float(final[2]) / float(final[1])
    assert gap_final > gap_first


def _shape_c3_heuristic(result):
    table = result.tables[0]
    never_wins = sum(1 for row in table.rows if row[4] == "never")
    always_wins = sum(1 for row in table.rows if row[4] == "always")
    # Neither fixed heuristic dominates the plane...
    assert never_wins >= 1
    assert always_wins >= 1
    # ...and the cost-based plan's regret vs the per-point winner is
    # small everywhere.
    for row in table.rows:
        regret = float(row[5].rstrip("%"))
        assert regret <= 25.0


def _shape_c4_distributed(result):
    from repro.harness.experiments import c4_distributed

    table = result.tables[0]
    strategies = list(c4_distributed.STRATEGIES)
    fetch_inner = strategies.index("fetch-inner (R*)") + 2
    fetch_matches = strategies.index("fetch-matches (R*)") + 2
    semi_join = strategies.index("semi-join (SDD-1)") + 2
    bloom = strategies.index("Bloom join") + 2

    by_key = {(row[0], row[1]): row for row in table.rows}
    selective_dear = by_key[("selective (5%)", "dear net")]
    unselective_cheap = by_key[("unselective (100%)", "cheap net")]

    # SDD-1's regime: selective filter + dear network -> restriction
    # wins by a wide margin.
    restricting = min(float(selective_dear[semi_join]),
                      float(selective_dear[bloom]))
    assert restricting < float(selective_dear[fetch_inner]) * 0.8
    # System R*'s regime: unselective filter + cheap network -> shipping
    # the inner wholesale wins.
    assert float(unselective_cheap[fetch_inner]) < min(
        float(unselective_cheap[semi_join]),
        float(unselective_cheap[bloom]),
    )
    # Fetch-matches (per-tuple round trips) is dominated everywhere.
    for row in table.rows:
        assert float(row[fetch_matches]) > float(row[fetch_inner])
    # The cost-based pick tracks the winner at every grid point.
    for row in table.rows:
        best = min(float(row[i]) for i in range(2, 6))
        assert float(row[-1]) <= best * 1.1


def _shape_c5_udf(result):
    table = result.tables[0]
    for row in table.rows:
        repeated = float(row[1])
        memo = float(row[2])
        filter_join = float(row[3])
        # The filter join never invokes more than memo, which never
        # invokes more than repeated probing...
        assert filter_join <= memo <= repeated
        # ...and the paper's locality discount makes the filter join
        # strictly cheaper than memoing.
        assert filter_join < memo
    # The invocation-cost gap widens with duplication: the repeated /
    # filter ratio must grow down the table.
    ratios = [float(r[1]) / float(r[3]) for r in table.rows]
    assert ratios == sorted(ratios)


def _shape_c6_local_semijoin(result):
    from repro.harness.experiments import c6_local_semijoin

    table = result.tables[0]
    methods = list(c6_local_semijoin.METHODS)
    semi = methods.index("local semi-join") + 1
    hash_col = methods.index("hash") + 1
    low_memory = table.rows[0]
    high_memory = table.rows[-1]
    # Under memory pressure the semi-join's two-scans property beats the
    # spilling hash join on page I/O...
    assert float(low_memory[semi]) < float(low_memory[hash_col])
    # ...while with ample memory the advantage disappears (no spills to
    # avoid), matching the paper's "in certain situations" hedge.
    assert float(high_memory[semi]) >= float(high_memory[hash_col]) * 0.9


def _shape_c7_estimator(result):
    # On plan pairs whose measured costs actually differ, the estimates
    # rank them correctly — which is all the optimizer needs.
    concordance_line = next(f for f in result.findings
                            if "distinguishable" in f)
    concordance = float(concordance_line.split(":")[1].split("—")[0])
    assert concordance >= 0.9
    # Estimate/measured ratios stay within an order of magnitude.
    for row in result.tables[0].rows:
        ratio = float(row[5])
        assert 0.1 <= ratio <= 10.0


def _shape_e1_multiview(result):
    table = result.tables[0]
    rows = {row[0]: row for row in table.rows}
    # The cost-based plan restricts both views (two filter joins or
    # equivalently-cheap probes) and beats full computation clearly.
    cost_based = float(rows["cost-based"][2])
    full = float(rows["full-computation"][2])
    assert cost_based < full
    # Forcing filter joins yields exactly one per view.
    assert int(float(rows["filter-join"][3])) == 2
    # All strategies agreed on the answer (enforced by run_strategies);
    # the cost-based choice is within noise of the best forced one.
    best = min(float(row[2]) for name, row in rows.items()
               if name != "cost-based")
    assert cost_based <= best * 1.15


def _shape_e2_bloom_sizing(result):
    table = result.tables[0]
    exact_row = table.rows[0]
    bloom_rows = table.rows[1:]
    costs = [float(row[4]) for row in bloom_rows]
    fprs = [float(row[2].rstrip("%")) for row in bloom_rows]
    # FPR is non-increasing in the bit budget...
    assert fprs == sorted(fprs, reverse=True)
    # ...the saturated (smallest) filter is the worst of the swept sizes
    assert costs[0] == max(costs)
    # ...and some Bloom size is at least competitive with the exact set
    # (within 10%): the fixed-size representation earns its keep.
    assert min(costs) <= float(exact_row[4]) * 1.1


def _shape_e3_filter_columns(result):
    table = result.tables[0]
    by_key = {(row[0], row[1]): row for row in table.rows}
    clustered_all = by_key[("clustered index on Fact.a", "all")]
    clustered_singles = by_key[("clustered index on Fact.a",
                                "all_and_singles")]
    # With a clustered index on one attribute, the singleton subset wins
    # big and the optimizer selects it...
    assert clustered_singles[2] == "a"
    assert float(clustered_singles[3]) < float(clustered_all[3])
    # ...and allowing singletons is never worse than the full set only.
    for design in ("clustered index on Fact.a", "no index (heap)"):
        full_only = float(by_key[(design, "all")][3])
        with_singles = float(by_key[(design, "all_and_singles")][3])
        assert with_singles <= full_only * 1.01


PAPER_SHAPES = {
    "fig1_fig2": _shape_fig1_fig2,
    "fig3": _shape_fig3,
    "table1": _shape_table1,
    "fig4": _shape_fig4,
    "fig5": _shape_fig5,
    "fig6": _shape_fig6,
    "c1_crossover": _shape_c1_crossover,
    "c2_complexity": _shape_c2_complexity,
    "c3_heuristic": _shape_c3_heuristic,
    "c4_distributed": _shape_c4_distributed,
    "c5_udf": _shape_c5_udf,
    "c6_local_semijoin": _shape_c6_local_semijoin,
    "c7_estimator": _shape_c7_estimator,
    "e1_multiview": _shape_e1_multiview,
    "e2_bloom_sizing": _shape_e2_bloom_sizing,
    "e3_filter_columns": _shape_e3_filter_columns,
}


def _experiment_name(module):
    return module.__name__.rsplit(".", 1)[-1]


class TestExperimentSmoke:
    """Every experiment runs end-to-end in quick mode and shows the
    paper's shape."""

    @pytest.mark.parametrize("module", ALL_EXPERIMENTS,
                             ids=_experiment_name)
    def test_quick_run_produces_tables(self, module):
        result = module.run(quick=True)
        assert result.tables
        assert result.findings
        assert result.render(markdown=True)
        PAPER_SHAPES[_experiment_name(module)](result)

    def test_filter_join_wins_selective_regime(self):
        from repro.harness.experiments import fig1_fig2

        db = fresh_empdept(fig1_fig2.workload(quick=True))
        runs = run_strategies(db, MOTIVATING_QUERY)
        full = runs["full-computation"].measured_cost
        filter_join = runs["filter-join"].measured_cost
        iteration = runs["nested-iteration"].measured_cost
        cost_based = runs["cost-based"].measured_cost
        assert filter_join < full, "magic must win when 5% of depts qualify"
        assert filter_join < iteration
        assert cost_based <= min(full, filter_join, iteration) * 1.05

    def test_optimization_time_bounded(self):
        """Optimizing with filter joins on stays within a constant
        factor of optimizing without, across N."""
        from repro.harness.experiments import c2_complexity

        for n in (3, 5):
            db = c2_complexity.chain_db(n, rows_per_table=100)
            query = c2_complexity.chain_query(n)
            _p, off, _t = plan_only(db, query, OptimizerConfig(
                enable_filter_join=False, enable_bloom_filter=False))
            _p, on, _t = plan_only(db, query, OptimizerConfig())
            assert on.metrics.plans_considered \
                <= 40 * off.metrics.plans_considered


class TestCompareCli:
    def test_compare_runs_and_agrees(self, tmp_path):
        from repro.harness.compare import main

        setup = tmp_path / "setup.sql"
        setup.write_text("""
            CREATE TABLE A (x INT, y INT);
            CREATE TABLE B (x INT, z INT);
            CREATE VIEW VAgg AS (
                SELECT B.x, COUNT(*) AS n FROM B GROUP BY B.x);
            INSERT INTO A VALUES (1, 10), (2, 20), (1, 30);
            INSERT INTO B VALUES (1, 0), (1, 1), (3, 2);
        """)
        import contextlib, io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([
                "SELECT A.y, V.n FROM A, VAgg V WHERE A.x = V.x",
                "--setup", str(setup),
            ])
        assert code == 0
        text = out.getvalue()
        assert "Strategy comparison" in text
        assert "cost-based" in text
        assert "Cost-based plan:" in text
