"""Thread-safety regressions for the shared per-database structures.

The server gives every connection its own MVCC session but they all
share one :class:`~repro.plancache.PlanCache`, one
:class:`~repro.obs.metrics.MetricsRegistry`, one
:class:`~repro.obs.querylog.QueryLog` and one
:class:`~repro.obs.log.EventLog`. These tests hammer each from real
threads and assert *exact* outcomes — lost updates under a data race
are probabilistic, so every test loops enough iterations that a missing
lock fails reliably, not occasionally.
"""

import sys
import threading
import time

from repro import Database, DataType, SerializationError
from repro.obs.log import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import QueryLog
from repro.plancache import PlanCacheEntry, cache_key

N_THREADS = 8
N_ITER = 400


def hammer(worker, n_threads=N_THREADS):
    """Run ``worker(thread_index)`` on N threads; re-raise any error."""
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


class TestMetricsRegistry:
    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry("test")
        hammer(lambda i: [registry.inc("hits_total")
                          for _ in range(N_ITER)])
        assert registry.counter("hits_total").total == \
            N_THREADS * N_ITER

    def test_concurrent_labelled_increments_are_exact(self):
        registry = MetricsRegistry("test")

        def worker(index):
            for _ in range(N_ITER):
                registry.inc("ops_total", label="t%d" % (index % 2))

        hammer(worker)
        counter = registry.counter("ops_total")
        assert counter.total == N_THREADS * N_ITER
        assert counter.values["t0"] == counter.values["t1"]

    def test_concurrent_histogram_observations_are_exact(self):
        registry = MetricsRegistry("test")
        hammer(lambda i: [registry.observe("ratio", 1.0 + i)
                          for _ in range(N_ITER)])
        assert registry.histogram("ratio").count == N_THREADS * N_ITER

    def test_concurrent_counters_and_export_are_exact(self):
        """Each thread bumps its own counter and a shared one while
        another exports the registry (a bump may add an instrument)."""
        registry = MetricsRegistry("db")
        stop = threading.Event()

        def exporter():
            while not stop.is_set():
                registry.as_dict()

        reader = threading.Thread(target=exporter)
        reader.start()
        try:
            hammer(lambda i: [(registry.inc("own%d_total" % i),
                               registry.inc("shared_total"))
                              for _ in range(N_ITER)])
        finally:
            stop.set()
            reader.join(10)
        assert not reader.is_alive()
        counters = registry.as_dict()
        assert counters["shared_total"]["total"] == N_THREADS * N_ITER
        for i in range(N_THREADS):
            assert counters["own%d_total" % i]["total"] == N_ITER


class TestEventLog:
    def test_concurrent_emit_loses_nothing(self):
        log = EventLog(capacity=N_THREADS * N_ITER + 10).enable()
        hammer(lambda i: [log.emit("tick", thread=i)
                          for _ in range(N_ITER)])
        assert len(log) == N_THREADS * N_ITER

    def test_to_jsonl_while_emitting(self):
        """Readers snapshot the ring under the log's lock: iterating
        the deque while another thread appends would raise."""
        log = EventLog(capacity=256).enable()
        stop = threading.Event()

        def emitter():
            while not stop.is_set():
                log.emit("tick", n=1)

        writer = threading.Thread(target=emitter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer.start()
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                log.to_jsonl()
                log.events(event="tick")
                log.render(limit=5)
                len(log)
        finally:
            stop.set()
            writer.join(10)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert len(log) == 256


class TestQueryLog:
    def test_concurrent_query_ids_are_unique(self):
        log = QueryLog()
        seen = [None] * N_THREADS

        def worker(index):
            seen[index] = [log.new_query_id() for _ in range(N_ITER)]

        hammer(worker)
        ids = [qid for chunk in seen for qid in chunk]
        assert len(set(ids)) == len(ids)

    def test_drift_report_while_sessions_run_traced_statements(self):
        """Four threads fold the record ring while four sessions write
        records, each with its operators' actuals, into it."""
        db = Database()
        db.create_table("t", [("id", DataType.INT),
                              ("v", DataType.INT)])
        db.insert("t", [(i, i % 9) for i in range(200)])
        db.analyze()
        finished = []

        def work(index):
            if index >= 4:
                while len(finished) < 4:
                    db.drift_report().as_dict()
                return
            try:
                with db.new_session() as session:
                    for i in range(60):
                        session.sql("SELECT id FROM t WHERE v = %d"
                                    % (i % 9))
            finally:
                finished.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            hammer(work)
        finally:
            sys.setswitchinterval(interval)
        report = db.drift_report()
        assert report.recorded == 4 * 60 * len(
            db.querylog.recent(1)[0].drift)


class TestPlanCache:
    def test_concurrent_store_lookup_never_corrupts(self):
        """Threads interleave store/lookup/invalidate on one cache; the
        invariants are structural (no exceptions, size <= capacity),
        plus hit/miss accounting that sums to the number of lookups."""
        db = Database()
        cache = db.plan_cache
        config = db.config
        keys = [cache_key("SELECT %d" % i, config) for i in range(32)]

        class Moving:
            """A catalog whose inputs move on every read."""

            @staticmethod
            def inputs(names):
                return (object(),)

        def worker(index):
            # odd threads see inputs that never match, so lookups also
            # take the invalidation path
            catalog = db.catalog if index % 2 == 0 else Moving
            for step in range(N_ITER):
                key = keys[(index + step) % len(keys)]
                entry = cache.lookup(key, catalog)
                if entry is None:
                    cache.store(PlanCacheEntry(
                        key=key, plan=None, metrics=None,
                        names=("nothing",)), catalog)
                if step % 97 == 0:
                    cache.invalidate_all()
                assert len(cache) <= cache.capacity

        hammer(worker)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == N_THREADS * N_ITER

    def test_ddl_invalidation_while_queries_run(self):
        """One thread churns DDL and statistics (a re-analyze of ``t``
        invalidates the cached plans that read it); reader threads keep
        executing the same cached query. Nothing throws, every read
        sees a correct answer, and the cache never serves a stale plan
        (wrong results would surface as a bad count)."""
        db = Database()
        db.create_table("t", [("id", DataType.INT),
                              ("v", DataType.INT)])
        db.insert("t", [(i, i * 10) for i in range(100)])
        stop = threading.Event()

        def ddl_churn(_index):
            for round_no in range(60):
                db.create_view("big_t", "SELECT id FROM t WHERE v > 50")
                db.analyze("t")
                db.drop_view("big_t")
            stop.set()

        def reader(_index):
            while not stop.is_set():
                result = db.sql("SELECT COUNT(*) AS c FROM t "
                                "WHERE v >= 0")
                assert result.rows[0][0] == 100

        errors = []

        def run(fn, index):
            try:
                fn(index)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                stop.set()

        threads = [threading.Thread(target=run, args=(reader, i))
                   for i in range(4)]
        threads.append(threading.Thread(target=run, args=(ddl_churn, 4)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]


class TestConcurrentSessions:
    def test_disjoint_writers_from_threads_all_commit(self):
        """Each thread owns one row and bumps it in an explicit txn,
        many times. Disjoint write sets -> zero conflicts, and the
        final table is exactly the sum of everyone's work."""
        db = Database()
        db.create_table("t", [("id", DataType.INT),
                              ("v", DataType.INT)])
        db.insert("t", [(i, 0) for i in range(N_THREADS)])
        rounds = 50

        def worker(index):
            with db.new_session("thread-%d" % index) as session:
                for _ in range(rounds):
                    session.sql("BEGIN")
                    session.sql("UPDATE t SET v = v + 1 "
                                "WHERE id = %d" % index)
                    session.sql("COMMIT")

        hammer(worker)
        rows = sorted(db.sql("SELECT id, v FROM t").rows)
        assert rows == [(i, rounds) for i in range(N_THREADS)]

    def test_contended_writers_one_winner_per_round(self):
        """All threads fight over one row. Every attempt either commits
        or raises SerializationError; the final value equals the number
        of commits — a lost update would break the equality."""
        db = Database()
        db.create_table("t", [("id", DataType.INT),
                              ("v", DataType.INT)])
        db.insert("t", [(1, 0)])
        commits = [0] * N_THREADS

        def worker(index):
            with db.new_session() as session:
                for _ in range(60):
                    session.sql("BEGIN")
                    try:
                        session.sql("UPDATE t SET v = v + 1 "
                                    "WHERE id = 1")
                        session.sql("COMMIT")
                        commits[index] += 1
                    except SerializationError:
                        session.sql("ROLLBACK")

        hammer(worker)
        final = db.sql("SELECT v FROM t").rows[0][0]
        assert final == sum(commits)
        assert final > 0
