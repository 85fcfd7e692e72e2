"""Optimizer search-space observability: the DP trace, why-not
explanations, exports, and planner metrics.

The anchor scenario is the paper's Figure-3 workload (the empdept
motivating query): its search trace must show at least one *pruned*
filter-join candidate with a full cost-ledger delta, and ``why_not``
must name the rival that beat it — the acceptance criteria of the
observability PR.
"""

import json

import pytest

from repro import Database, Options, OptimizerTrace, PlanError
from repro.obs import opttrace
from repro.obs.opttrace import DOMINATED, KEPT, ORDER_PRUNED
from repro.workloads import MOTIVATING_QUERY, build_empdept

from tests.conftest import python_calls

QUERY = " ".join(MOTIVATING_QUERY.split())


@pytest.fixture(scope="module")
def db(empdept_db):
    return empdept_db


@pytest.fixture(scope="module")
def trace(db):
    trace = OptimizerTrace()
    db.plan(QUERY, search=trace)
    return trace


class TestSearchTrace:
    def test_records_every_memo_candidate(self, db, trace):
        assert len(trace.records) == trace.metrics.plans_considered
        assert trace.metrics.plans_considered > 50

    def test_verdicts_partition_candidates(self, trace):
        kept = [r for r in trace.records if not r.pruned]
        pruned = [r for r in trace.records if r.pruned]
        assert kept and pruned
        assert len(kept) + len(pruned) == len(trace.records)

    def test_pruned_filter_join_with_ledger_delta(self, trace):
        """Acceptance criterion: >=1 pruned filter-join candidate whose
        record carries the full Table-1 / ledger breakdown."""
        losers = [
            r for r in trace.records
            if r.method in ("filter_join", "bloom") and r.pruned
        ]
        assert losers, "no pruned filter-join candidates recorded"
        rec = losers[0]
        assert rec.components, "missing cost-ledger components"
        assert rec.detail and "production" in rec.detail
        assert "filter_columns" in rec.detail
        assert "components" in rec.detail  # Table-1 terms

    def test_chosen_plan_marked(self, db, trace):
        chosen = [r for r in trace.records if r.chosen]
        assert chosen
        best = max(chosen, key=lambda r: len(r.aliases))
        assert set(best.aliases) == {"D", "E", "V"}
        assert not any(r.pruned for r in chosen)

    def test_render_shows_lattice_and_pruning(self, db, trace):
        text = trace.render()
        assert "level 1 - access paths" in text
        assert "level 3" in text
        assert DOMINATED in text
        assert "Table-1 components" in text
        assert "ledger delta" in text
        assert "parametric costers" in text

    def test_parametric_anchors_recorded(self, trace):
        assert trace.anchors
        anchor = trace.anchors[0]
        assert anchor.anchors, "no interpolation endpoints"
        assert anchor.fit is not None
        assert anchor.estimate_calls >= anchor.nested_optimizations

    def test_attach_twice_rejected(self, db):
        trace = OptimizerTrace()
        db.plan(QUERY, search=trace)
        with pytest.raises(PlanError):
            db.plan(QUERY, search=trace)


class TestWhyNot:
    def test_rejected_names_rival_and_ledger_terms(self, db):
        report = db.why_not(QUERY, "bloom")
        assert report.status == "rejected"
        assert report.rival is not None
        assert report.rival.method != "bloom"
        assert report.delta > 0
        assert report.ledger_delta, "no per-field ledger difference"
        text = report.render()
        assert "ledger delta" in text
        assert report.rival.method in text

    def test_chosen_reports_runner_up(self, db):
        report = db.why_not(QUERY, "filter_join")
        assert report.status == "chosen"
        assert "WAS chosen" in report.render()

    def test_disabled_reports_config_flag(self, db):
        config = db.config.replace(enable_filter_join=False,
                                   enable_bloom_filter=False)
        report = db.why_not(QUERY, "filter_join", config=config)
        assert report.status == "disabled"
        assert "enable_filter_join=False" in report.render()

    def test_method_aliases_normalize(self, db):
        by_alias = db.why_not(QUERY, "Magic")
        by_name = db.why_not(QUERY, "filter_join")
        assert by_alias.method == by_name.method == "filter_join"

    def test_unknown_method_lists_valid_names(self, db):
        with pytest.raises(PlanError, match="filter_join"):
            db.why_not(QUERY, "quantum_join")


class TestExplainModes:
    def test_search_mode_appends_trace(self, db):
        text = db.explain(QUERY, mode="search")
        assert "== optimizer search trace" in text
        assert DOMINATED in text

    def test_why_not_section(self, db):
        text = db.explain(QUERY, why_not="merge")
        assert "why-not merge" in text

    def test_bad_mode_rejected(self, db):
        with pytest.raises(Exception, match="mode"):
            db.explain(QUERY, mode="verbose")

    def test_plan_mode_unchanged(self, db):
        assert db.explain(QUERY) == db.explain(QUERY, mode="plan")


class TestExports:
    def test_json_round_trip(self, trace):
        data = json.loads(trace.to_json_str())
        assert data["format"] == "repro-search-trace/v1"
        assert len(data["records"]) == len(trace.records)
        assert data["metrics"]["candidates_by_method"]
        assert data["parametric"]
        verdicts = {r["verdict"] for r in data["records"]}
        assert KEPT in verdicts and DOMINATED in verdicts

    def test_dot_export(self, trace):
        dot = trace.to_dot()
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"D_E" -> "D_E_V"' in dot.replace("  ", " ") or "->" in dot
        # the chosen path is highlighted
        assert "penwidth" in dot

    def test_dump_search_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        assert main(["dump-search", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["records"]
        dot = tmp_path / "trace.dot"
        assert main(["dump-search", "--format", "dot",
                     "-o", str(dot)]) == 0
        assert dot.read_text().startswith("digraph")


class TestOptionsIntegration:
    def test_search_trace_attaches_to_result(self, db):
        result = db.sql(QUERY, options=Options(search_trace=True))
        assert result.search is not None
        assert result.search.records
        assert result.search.final_plan is not None

    def test_off_by_default(self, db):
        assert db.sql(QUERY).search is None

    def test_untraced_planning_enters_no_search_trace_code(self, db):
        """Without a search trace the planner runs its plain methods:
        no function of the trace module is entered at all."""
        entered, (plan, _planner) = python_calls(db.plan, QUERY)
        assert "FilterJoin" in plan.explain()
        assert len(entered) > 1000  # the hook saw the planner run
        assert not [code.co_name for code in entered
                    if code.co_filename == opttrace.__file__]
        traced, _ = python_calls(db.plan, QUERY, search=OptimizerTrace())
        assert any(code.co_filename == opttrace.__file__
                   for code in traced)

    def test_search_trace_bypasses_plan_cache(self):
        db = Database()
        build_empdept(db)
        db.configure(use_cache=True)
        db.sql(QUERY)
        result = db.sql(QUERY, options=Options(search_trace=True))
        assert result.search is not None
        assert not result.cached_plan

    def test_explain_analyze_search_line(self, db):
        text = db.explain_analyze(QUERY, search=True)
        line = [l for l in text.splitlines() if l.startswith("search:")]
        assert line, "no search summary line"
        assert "memo entries" in line[0]
        assert "candidates" in line[0]

    def test_explain_analyze_without_search_has_no_line(self, db):
        text = db.explain_analyze(QUERY)
        assert not any(l.startswith("search:") for l in text.splitlines())


class TestPlannerMetrics:
    def test_per_method_counters_in_registry(self):
        db = Database()
        build_empdept(db)
        db.sql(QUERY)
        data = db.metrics()
        by_method = data["planner_candidates_total"]["by_label"]
        assert "filter_join" in by_method
        assert by_method["filter_join"] >= 1
        pruned = data["planner_candidates_pruned_total"]["by_label"]
        assert sum(pruned.values()) > 0
        assert data["planner_memo_entries_total"]["total"] > 0

    def test_parametric_plans_saved_counter(self):
        db = Database()
        build_empdept(db)
        db.sql(QUERY)
        data = db.metrics()
        saved = data.get("planner_parametric_plans_saved_total")
        assert saved is not None and saved["total"] > 0

    def test_planner_metrics_by_method_sum(self, db):
        _plan, planner = db.plan(QUERY)
        m = planner.metrics
        assert sum(m.candidates_by_method.values()) == m.plans_considered
        assert sum(m.pruned_by_method.values()) <= m.plans_considered


class TestVerdictSemantics:
    def test_dominated_points_at_cheaper_rival(self, trace):
        by_seq = {r.seq: r for r in trace.records}
        for rec in trace.records:
            if rec.verdict == DOMINATED and rec.dominated_by is not None:
                rival = by_seq[rec.dominated_by]
                assert rival.aliases == rec.aliases
                assert rival.cost <= rec.cost

    def test_order_pruned_exceed_four_times_best(self, trace):
        for rec in trace.records:
            if rec.verdict != ORDER_PRUNED:
                continue
            peers = [
                r.cost for r in trace.records
                if r.aliases == rec.aliases and r.site == rec.site
            ]
            assert rec.cost > min(peers)
