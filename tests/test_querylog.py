"""Serving-layer telemetry: the query log, its histograms, and the
slow-query capture path.

Unit coverage for the ring-buffer semantics and the latency summaries,
a thread hammer proving exact counts under concurrent recording (the
log is shared by every server connection), and the database-level
wiring: every statement is recorded (there is no switch), a statement
over ``slow_query_seconds`` carries its full plan text and span trace,
and the log is the one owner of the per-statement counts.
"""

import importlib
import pathlib
import threading

import pytest

from repro import Database, DataType, EventLog, Options, PlanCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import LATENCY_BUCKETS, QueryLog

N_THREADS = 8
N_ITER = 400


def hammer(worker, n_threads=N_THREADS):
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestQueryLogUnit:
    def test_record_and_recent_newest_first(self):
        log = QueryLog(window=4)
        for i in range(6):
            log.record(statement="q%d" % i, kind="select",
                       seconds=0.001 * i, rows=i, cost=1.0)
        assert log.recorded == 6
        assert len(log) == 4  # ring buffer dropped the oldest two
        recent = log.recent()
        assert [e.statement for e in recent] == ["q5", "q4", "q3", "q2"]

    def test_slow_entries_survive_fast_churn(self):
        log = QueryLog(window=4, slow_window=8)
        log.record(statement="slow one", kind="select", seconds=0.9,
                   rows=1, cost=1.0, slow=True, plan="Plan text",
                   trace={"spans": []})
        for i in range(20):
            log.record(statement="fast%d" % i, kind="select",
                       seconds=0.0001, rows=1, cost=1.0)
        # the slow entry aged out of the main window but not the slow one
        assert all(e.statement != "slow one" for e in log.recent())
        slowest = log.slowest()
        assert slowest[0].statement == "slow one"
        assert slowest[0].plan == "Plan text"
        assert slowest[0].trace == {"spans": []}

    def test_slowest_sorted_by_seconds(self):
        log = QueryLog()
        for i, seconds in enumerate([0.2, 0.5, 0.1]):
            log.record(statement="q%d" % i, kind="select",
                       seconds=seconds, rows=0, cost=0.0, slow=True)
        assert [e.seconds for e in log.slowest()] == [0.5, 0.2, 0.1]

    def test_latency_summary_per_kind(self):
        log = QueryLog()
        log.record(statement="a", kind="select", seconds=0.002,
                   rows=0, cost=0.0)
        log.record(statement="b", kind="insert", seconds=0.3,
                   rows=0, cost=0.0)
        summary = log.latency_summary()
        assert sorted(summary) == ["insert", "select"]
        assert summary["select"]["count"] == 1
        assert summary["select"]["p50"] <= summary["insert"]["p50"]

    def test_entry_as_dict_omits_absent_plan(self):
        log = QueryLog()
        entry = log.record(statement="q", kind="select", seconds=0.1,
                           rows=2, cost=3.0)
        data = entry.as_dict()
        assert "plan" not in data and "trace" not in data
        assert data["rows"] == 2

    def test_clear(self):
        log = QueryLog()
        log.record(statement="q", kind="select", seconds=0.1,
                   rows=0, cost=0.0, slow=True)
        log.clear()
        assert log.recorded == 0 and log.slow_recorded == 0
        assert not log.recent() and not log.slowest()
        assert log.latency_summary() == {}

    def test_render_empty_and_filled(self):
        log = QueryLog()
        assert "no slow queries" in log.render()
        log.record(statement="SELECT  1", kind="select", seconds=0.2,
                   rows=1, cost=1.0, slow=True, session="c1")
        text = log.render()
        assert "SELECT 1" in text and "c1" in text

    def test_buckets_are_sorted(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


class TestQueryLogThreadSafety:
    def test_concurrent_recording_exact_counts(self):
        log = QueryLog(window=64, slow_window=16)

        def worker(index):
            for i in range(N_ITER):
                log.record(statement="q", kind="k%d" % (index % 2),
                           seconds=0.001, rows=1, cost=1.0,
                           slow=(i % 10 == 0))

        hammer(worker)
        total = N_THREADS * N_ITER
        assert log.recorded == total
        assert log.slow_recorded == total // 10
        assert len(log) == 64  # window intact
        summary = log.latency_summary()
        assert summary["k0"]["count"] + summary["k1"]["count"] == total

    def test_concurrent_readers_and_writers(self):
        log = QueryLog(window=32)
        stop = threading.Event()

        def writer(index):
            for i in range(N_ITER):
                log.record(statement="q%d" % i, kind="select",
                           seconds=0.001, rows=1, cost=1.0,
                           slow=(i % 7 == 0))

        def reader():
            while not stop.is_set():
                log.recent(10)
                log.slowest(5)
                log.latency_summary()
                log.counts()
                log.drift_samples()

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        try:
            hammer(writer)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert log.recorded == N_THREADS * N_ITER


class TestDatabaseTelemetry:
    def make_db(self):
        db = Database()
        db.create_table("t", [("id", DataType.INT)])
        db.insert("t", [(i,) for i in range(50)])
        db.analyze()
        return db

    def test_telemetry_records_every_statement(self):
        db = self.make_db()
        db.sql("SELECT id FROM t WHERE id < 5")
        db.sql("INSERT INTO t VALUES (99)")
        assert db.querylog.recorded == 2
        kinds = {e.kind for e in db.querylog.recent()}
        assert kinds == {"select", "insert"}
        assert "latency" in db.metrics()

    def test_slow_query_captures_plan_and_trace(self):
        db = self.make_db()
        # a zero threshold makes every statement "slow"
        opts = Options(slow_query_seconds=1e-9, trace=True)
        db.sql("SELECT id FROM t WHERE id < 5", options=opts)
        slow = db.querylog.slowest()
        assert len(slow) == 1
        entry = slow[0]
        assert entry.slow
        assert entry.plan and "SeqScan" in entry.plan
        assert entry.trace and entry.trace["root"]
        assert db.metrics()["slow_queries_total"]["by_label"][
            "select"] == 1.0

    def test_fast_query_not_marked_slow(self):
        db = self.make_db()
        opts = Options(slow_query_seconds=60.0)
        db.sql("SELECT id FROM t", options=opts)
        assert db.querylog.recorded == 1
        assert db.querylog.slow_recorded == 0
        assert not db.querylog.slowest()

    def test_slow_query_seconds_validation(self):
        try:
            Options(slow_query_seconds=0.0)
        except ValueError:
            pass
        else:
            raise AssertionError("slow_query_seconds=0 should reject")

    def test_statement_text_normalized_and_capped(self):
        db = self.make_db()
        sql = "SELECT   id\nFROM    t   WHERE id <" + " 5"
        db.sql(sql)
        entry = db.querylog.recent()[0]
        assert "\n" not in entry.statement
        assert "  " not in entry.statement


class TestOneCollector:
    """The record ring is the only per-statement collector, and each
    counter has one owner; the second copies are gone, not aliased."""

    def test_statement_counters_are_the_logs_counts(self):
        db = TestDatabaseTelemetry().make_db()
        opts = Options(slow_query_seconds=1e-9)
        db.sql("SELECT id FROM t", options=opts)
        db.sql("INSERT INTO t VALUES (7)")
        queries, slow = db.querylog.counts()
        assert queries == {"select": 1, "insert": 1}
        assert slow == {"select": 1}
        metrics = db.metrics()
        assert metrics["queries_total"]["by_label"] == queries
        assert metrics["slow_queries_total"] == {
            "kind": "counter", "total": 1, "by_label": {"select": 1}}
        assert db.querylog.recorded == 2 and db.querylog.slow_recorded == 1
        assert metrics["latency"]["select"]["count"] == 1
        db.querylog.clear()
        assert "queries_total" not in db.metrics()

    def test_removed_names_are_gone(self):
        obs_drift = importlib.import_module("repro.obs.drift")
        assert not hasattr(obs_drift, "TableDrift")
        with pytest.raises(ImportError):
            from repro.obs.drift import DriftRecorder  # noqa: F401
        with pytest.raises(ImportError):
            from repro import global_metrics  # noqa: F401
        with pytest.raises(ImportError):
            from repro.obs.metrics import global_metrics  # noqa: F401,F811
        import repro
        assert "global_metrics" not in repro.__all__
        assert "DriftRecorder" not in repro.__all__
        with pytest.raises(TypeError):
            MetricsRegistry("db", parent=MetricsRegistry("process"))
        with pytest.raises(TypeError):
            PlanCache(4, listener=print)
        db = Database()
        for owner, name in ((db, "drift"), (db, "_plan_cache_event"),
                            (MetricsRegistry(), "reset"),
                            (EventLog(), "new_query_id"),
                            (QueryLog(), "snapshot")):
            with pytest.raises(AttributeError):
                getattr(owner, name)
        root = pathlib.Path(__file__).resolve().parent.parent
        assert not (root / "benchmarks").exists()
