"""Estimator accuracy and drift-report tests.

Two claims: (1) after ``analyze``, per-operator cardinality estimates on
the trained EmpDept/star workloads stay within documented q-error
bounds — base-table scans are near-exact (the histograms were built
from exactly this data), whole plans stay within an order of magnitude
even through aggregation views; (2) when a table's statistics go stale
(grown and skewed after the last ``analyze``), ``drift_report()`` ranks
its operators first, so the report genuinely names where to point the
next ``analyze``.
"""

import pytest

from repro import Database, DataType
from repro.obs.drift import DriftGroup, DriftReport, DriftSample
from repro.obs.querylog import QueryLog, QueryLogEntry
from repro.obs.trace import q_error
from repro.workloads import (
    EmpDeptConfig,
    MOTIVATING_QUERY,
    StarConfig,
    fresh_empdept,
    fresh_star,
)

#: scan estimates on freshly-analyzed data must be near-exact
SCAN_Q_BOUND = 1.5
#: whole-plan bound on EmpDept (filter-set assumptions add slack)
EMPDEPT_Q_BOUND = 5.0
#: whole-plan bound on star (group-count estimates through views)
STAR_Q_BOUND = 20.0

EMPDEPT_QUERIES = [
    MOTIVATING_QUERY,
    "SELECT E.eid, E.sal FROM Emp E WHERE E.age < 30",
    "SELECT E.eid, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND D.budget > 100000",
    "SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did",
]

STAR_QUERIES = [
    "SELECT C.region, V.total_spend FROM Customer C, CustSpend V "
    "WHERE C.cust_id = V.cust_id AND C.segment = 1",
    "SELECT C.region, SUM(S.amount) AS revenue "
    "FROM Sales S, Customer C WHERE S.cust_id = C.cust_id "
    "GROUP BY C.region",
    "SELECT P.category, V.total_qty FROM Product P, ProductVolume V "
    "WHERE P.prod_id = V.prod_id AND P.price > 400",
]


def _scan_q_errors(trace):
    return [
        span.q_error for span in trace.operator_spans()
        if span.node_type == "SeqScanNode" and span.q_error is not None
    ]


class TestQErrorFunction:
    def test_symmetric_and_clamped(self):
        assert q_error(10, 10) == 1.0
        assert q_error(10, 40) == 4.0
        assert q_error(40, 10) == 4.0
        # sub-row estimates and zero actuals clamp to 1 instead of
        # dividing by zero
        assert q_error(0.3, 0) == 1.0
        assert q_error(0, 100) == 100.0


class TestTrainedWorkloadBounds:
    @pytest.fixture(scope="class")
    def empdept(self):
        return fresh_empdept(EmpDeptConfig(
            num_departments=40, employees_per_department=15,
            big_fraction=0.2, young_fraction=0.3, seed=11,
        ))

    @pytest.fixture(scope="class")
    def star(self):
        return fresh_star(StarConfig(num_sales=1500, seed=7))

    def test_empdept_q_errors_bounded(self, empdept):
        for query in EMPDEPT_QUERIES:
            trace = empdept.sql(query).trace
            assert trace.max_q_error <= EMPDEPT_Q_BOUND, query
            for q in _scan_q_errors(trace):
                assert q <= SCAN_Q_BOUND, query

    def test_star_q_errors_bounded(self, star):
        for query in STAR_QUERIES:
            trace = star.sql(query).trace
            assert trace.max_q_error <= STAR_Q_BOUND, query
            for q in _scan_q_errors(trace):
                assert q <= SCAN_Q_BOUND, query

    def test_drift_report_reflects_trained_accuracy(self, empdept):
        empdept.querylog.clear()
        for query in EMPDEPT_QUERIES:
            empdept.sql(query)
        report = empdept.drift_report()
        assert report.groups, "queries must populate the recorder"
        assert report.worst.max_q_error <= EMPDEPT_Q_BOUND
        # a report renders with its ranking columns
        text = report.render()
        assert "max q-err" in text and "rank" in text


class TestMisstatedTableRanking:
    def _db_with_stale_table(self):
        db = Database()
        db.create_table("Good", [("a", DataType.INT),
                                 ("b", DataType.INT)])
        db.create_table("Stale", [("a", DataType.INT),
                                  ("b", DataType.INT)])
        rows = [(i % 10, i % 7) for i in range(100)]
        db.insert("Good", rows)
        db.insert("Stale", rows)
        db.analyze()
        # grow + skew Stale *after* analyze: its statistics now
        # deliberately mis-state the data
        db.insert("Stale", [(3, i % 7) for i in range(2000)])
        return db

    def test_drift_report_ranks_misstated_table_first(self):
        db = self._db_with_stale_table()
        for _ in range(3):
            db.sql("SELECT G.b FROM Good G WHERE G.a = 3")
            db.sql("SELECT S.b FROM Stale S WHERE S.a = 3")
        report = db.drift_report()
        assert report.worst is not None
        # the top group references the stale table (its Project span
        # shares the scan's q-error and may win the alphabetical
        # tie-break, hence alias-or-name)
        assert "Stale" in report.worst.operator or \
            "(S." in report.worst.operator
        assert any("Stale" in g.operator for g in report.groups[:2])
        assert report.worst.max_q_error > 10
        # every group naming the fresh table ranks strictly below every
        # group naming the stale one
        ranks = {g.operator: i for i, g in enumerate(report.groups)}
        stale_ranks = [i for op, i in ranks.items() if "Stale" in op
                       or "(S." in op]
        good_ranks = [i for op, i in ranks.items() if "Good" in op
                      or "(G." in op]
        assert stale_ranks and good_ranks
        assert max(stale_ranks) < min(good_ranks)

    def test_reanalyze_restores_accuracy(self):
        db = self._db_with_stale_table()
        db.sql("SELECT S.b FROM Stale S WHERE S.a = 3")
        assert db.drift_report().worst.max_q_error > 10
        db.analyze()
        # the analyze retired the stale-era samples by itself
        assert db.drift_report().empty
        trace = db.sql("SELECT S.b FROM Stale S WHERE S.a = 3").trace
        assert trace.max_q_error <= SCAN_Q_BOUND
        assert db.drift_report().worst.max_q_error <= SCAN_Q_BOUND

    def test_analyze_retires_only_that_tables_samples(self):
        db = self._db_with_stale_table()
        for table in ("Good", "Stale"):
            db.sql("SELECT X.b FROM %s X WHERE X.a = 3" % table)
        assert [t.table for t in db.drift_report().tables] == \
            ["Stale", "Good"]
        db.analyze("stale")  # any spelling of the name
        report = db.drift_report()
        assert [t.table for t in report.tables] == ["Good"]
        assert all("Stale" not in g.worst.statement for g in report.groups)
        # the records themselves still carry what was measured
        assert any(sample.table == "Stale"
                   for entry in db.querylog.recent()
                   for sample in entry.drift or ())


def _record(log, *samples):
    """Record one statement carrying ``samples`` (none: it ran no
    plan) — what its operators' actuals would give."""
    entry = QueryLogEntry("q", kind="select")
    entry._drift = samples or None
    log.record(entry)


def _report(log):
    return DriftReport(log.drift_samples(), log.window)


class TestRecorderMechanics:
    """The drift report is a fold over the query log's record ring."""

    def test_ring_buffer_evicts_oldest(self):
        log = QueryLog(window=3)
        for i in range(5):
            samples = [DriftSample("op%d" % i, "SeqScanNode", "q",
                                   est_rows=10, actual_rows=10 * (i + 1))]
            if i == 3:
                samples.append(DriftSample("op3b", "SeqScanNode", "q",
                                           10, 10))
            _record(log, *samples)
        report = _report(log)
        assert {g.operator for g in report.groups} == \
            {"op2", "op3", "op3b", "op4"}
        assert report.recorded == 4 and report.window == 3
        # the window counts statements, with samples or not
        _record(log)
        assert {g.operator for g in _report(log).groups} == \
            {"op3", "op3b", "op4"}

    def test_ranking_breaks_ties_by_mean(self):
        log = QueryLog()
        # same max q-error (4.0) but different means
        for actual in (40, 40):
            _record(log, DriftSample("hot", "T", "q", 10, actual))
        for actual in (40, 10):
            _record(log, DriftSample("cool", "T", "q", 10, actual))
        groups = _report(log).groups
        assert [g.operator for g in groups] == ["hot", "cool"]

    def test_empty_report_renders(self):
        for report in (_report(QueryLog()), Database().drift_report()):
            assert report.worst is None
            assert "no query ran a plan" in report.render()
            assert report.empty
            assert report.as_dict()["empty"] is True

    def test_group_mean_q_error_with_zero_samples(self):
        group = DriftGroup("SeqScan(T)", "SeqScanNode")
        assert group.samples == 0
        # the zero-sample mean is the neutral q-error, not a ZeroDivision
        assert group.mean_q_error == 1.0
        assert group.as_dict()["mean_q_error"] == 1.0
        assert DriftGroup(table="T").as_dict()["table"] == "T"

    def test_populated_report_not_empty(self):
        log = QueryLog()
        _record(log, DriftSample("op", "T", "q", 10, 20, table="T"))
        report = _report(log)
        assert not report.empty
        assert "no query ran a plan" not in report.render()
        assert [t.table for t in report.tables] == ["T"]
