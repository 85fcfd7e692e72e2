"""Tests for the Database façade: DDL, DML, scripts, EXPLAIN, errors."""

import pytest

from repro import (
    CatalogError,
    Database,
    DataType,
    OptimizerConfig,
    Options,
    QueryTimeout,
    ReproError,
    ResourceExhausted,
    SqlSyntaxError,
)


class TestDdl:
    def test_create_table_via_sql(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT, s VARCHAR(20), f FLOAT, b BOOLEAN)")
        table = db.catalog.table("T")
        assert table.schema.names() == ["a", "s", "f", "b"]

    def test_duplicate_table_rejected(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        with pytest.raises(CatalogError):
            db.sql("CREATE TABLE T (a INT)")

    def test_create_view_and_query(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        db.sql("INSERT INTO T VALUES (1), (2), (3)")
        db.sql("CREATE VIEW Big AS SELECT a FROM T WHERE a > 1")
        assert sorted(db.sql("SELECT a FROM Big").rows) == [(2,), (3,)]

    def test_view_name_collision_rejected(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        with pytest.raises(CatalogError):
            db.sql("CREATE VIEW T AS SELECT a FROM T")

    def test_drop_table_and_view(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        db.sql("CREATE VIEW V AS SELECT a FROM T")
        db.sql("DROP VIEW V")
        db.sql("DROP TABLE T")
        assert not db.catalog.has_table("T")
        assert not db.catalog.has_view("V")

    def test_create_index_via_sql(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        db.sql("CREATE INDEX ON T (a)")
        assert db.catalog.table("T").index_on("a") is not None


class TestDml:
    def test_insert_returns_count(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        result = db.sql("INSERT INTO T VALUES (1), (2)")
        assert result.rows == [(2,)]

    def test_insert_type_checked(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        with pytest.raises(CatalogError):
            db.sql("INSERT INTO T VALUES ('nope')")

    def test_null_insert_and_filter(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        db.sql("INSERT INTO T VALUES (1), (NULL)")
        assert db.sql("SELECT a FROM T WHERE a = 1").rows == [(1,)]


class TestScripts:
    def test_script_executes_in_order(self):
        db = Database()
        results = db.execute_script("""
            CREATE TABLE T (a INT, b INT);
            INSERT INTO T VALUES (1, 10), (2, 20), (3, 30);
            SELECT a FROM T WHERE b >= 20 ORDER BY a;
        """)
        assert len(results) == 3
        assert results[2].rows == [(2,), (3,)]

    def test_script_statement_kinds(self):
        db = Database()
        results = db.execute_script(
            "CREATE TABLE T (a INT); INSERT INTO T VALUES (1);"
        )
        assert results[0].statement_kind == "create table"
        assert results[1].statement_kind == "insert"


class TestQueryResult:
    def make(self):
        db = Database()
        db.execute_script("""
            CREATE TABLE T (a INT, b INT);
            INSERT INTO T VALUES (1, 10), (2, 20);
        """)
        db.analyze()
        return db

    def test_columns_and_dicts(self):
        result = self.make().sql("SELECT a, b FROM T ORDER BY a")
        assert result.columns == ["a", "b"]
        assert result.to_dicts() == [{"a": 1, "b": 10}, {"a": 2, "b": 20}]

    def test_iteration_and_len(self):
        result = self.make().sql("SELECT a FROM T")
        assert len(result) == 2
        assert sorted(result) == [(1,), (2,)]

    def test_measured_cost_positive(self):
        result = self.make().sql("SELECT a FROM T")
        assert result.measured_cost() > 0

    def test_metrics_attached(self):
        result = self.make().sql("SELECT a FROM T")
        assert result.metrics is not None
        assert result.metrics.plans_considered >= 1


class TestExplain:
    def test_explain_statement(self):
        db = Database()
        db.execute_script(
            "CREATE TABLE T (a INT); INSERT INTO T VALUES (1);"
        )
        result = db.sql("EXPLAIN SELECT a FROM T")
        assert result.statement_kind == "explain"
        assert any("SeqScan" in row[0] for row in result.rows)

    def test_explain_helper(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        text = db.explain("SELECT a FROM T")
        assert "Project" in text


class TestErrors:
    def test_syntax_error(self):
        with pytest.raises(SqlSyntaxError):
            Database().sql("SELEC a FROM T")

    def test_unsupported_config_validated(self):
        with pytest.raises(ValueError):
            Database(OptimizerConfig(parametric_classes=1))

    def test_config_per_query_override(self):
        db = Database()
        db.execute_script(
            "CREATE TABLE T (a INT); INSERT INTO T VALUES (1);"
        )
        result = db.sql("SELECT a FROM T",
                        config=OptimizerConfig(enable_filter_join=False))
        assert result.rows == [(1,)]


class TestStatsLifecycle:
    def test_stats_lazy_computed(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        db.sql("INSERT INTO T VALUES (1), (2)")
        # no explicit analyze: planning must still work
        assert db.sql("SELECT a FROM T WHERE a = 1").rows == [(1,)]

    def test_analyze_refreshes(self):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        db.sql("INSERT INTO T VALUES (1)")
        db.analyze()
        before = db.catalog.stats("T").num_rows
        db.sql("INSERT INTO T VALUES (2), (3)")
        db.analyze("T")
        after = db.catalog.stats("T").num_rows
        assert (before, after) == (1, 3)


class TestCreateTableAsOptions:
    """CREATE TABLE AS runs its query through the one query path, so
    the per-call limits apply to it."""

    def make_db(self):
        db = Database()
        db.create_table("T", [("a", DataType.INT)],
                        rows=[(i,) for i in range(2000)])
        return db

    def test_timeout_applies_and_leaves_no_table(self):
        db = self.make_db()
        with pytest.raises(QueryTimeout):
            db.sql("CREATE TABLE u AS SELECT a FROM T WHERE a > 5",
                   options=Options(timeout=1e-9))
        assert not db.catalog.has_table("u")
        db.sql("CREATE TABLE u AS SELECT a FROM T WHERE a > 5")
        assert db.catalog.table("u").num_rows == 1994

    def test_memory_budget_applies_and_leaves_no_table(self):
        db = self.make_db()
        with pytest.raises(ResourceExhausted):
            db.sql("CREATE TABLE u AS SELECT x.a FROM T x, T y "
                   "WHERE x.a = y.a",
                   options=Options(memory_budget_bytes=64))
        assert not db.catalog.has_table("u")


class TestOnePath:
    """Every entry point runs through ``_execute_statement`` and appends
    exactly one record, with the right kind/status/rows, whose phase
    seconds fit inside its wall seconds."""

    def make_db(self):
        db = Database()
        db.create_table("T", [("a", DataType.INT), ("b", DataType.INT)],
                        rows=[(i, i % 3) for i in range(12)])
        db.create_index("T", "a")
        db.analyze()
        return db

    def one_record(self, db, run):
        before = db.querylog.recorded
        try:
            outcome = run()
        except ReproError as exc:
            outcome = exc
        assert db.querylog.recorded == before + 1, \
            "expected exactly one record"
        record = db.querylog.recent(1)[0]
        # results and errors name their record; explain_analyze's text
        # cannot
        assert getattr(outcome, "query_id", record.query_id) \
            == record.query_id
        phases = sum(seconds for _name, seconds in record.phases())
        assert 0.0 <= phases <= record.seconds
        return record

    def shape(self, record):
        return record.kind, record.status, record.rows

    def test_sql(self):
        db = self.make_db()
        record = self.one_record(
            db, lambda: db.sql("SELECT a FROM T WHERE b = 1"))
        assert self.shape(record) == ("select", "ok", 4)
        assert record.parse_seconds > 0 and record.plan_seconds > 0
        assert record.execute_seconds > 0 and record.cost > 0
        assert record.plans_considered >= 1 and record.plan_cache == "miss"

    def test_execute_script_records_each_statement(self):
        db = self.make_db()
        before = db.querylog.recorded
        results = db.execute_script(
            "INSERT INTO T VALUES (100, 1); SELECT a FROM T WHERE b = 1;")
        assert db.querylog.recorded == before + 2
        select, insert = db.querylog.recent(2)
        assert self.shape(insert) == ("insert", "ok", 1)
        assert self.shape(select) == ("select", "ok", 5)
        assert [r.query_id for r in results] == \
            [insert.query_id, select.query_id]

    def test_session_sql(self):
        db = self.make_db()
        with db.new_session("s9") as session:
            record = self.one_record(
                db, lambda: session.sql("SELECT a FROM T"))
        assert self.shape(record) == ("select", "ok", 12)
        assert record.session == "s9"

    def test_prepared_query_and_insert(self):
        db = self.make_db()
        query = db.prepare("SELECT a FROM T WHERE a < ?")
        record = self.one_record(db, lambda: query.execute([5]))
        assert self.shape(record) == ("select", "ok", 5)
        assert record.plan_cache == "hit"
        insert = db.prepare("INSERT INTO T VALUES (?, ?)")
        record = self.one_record(db, lambda: insert.execute([50, 2]))
        assert self.shape(record) == ("insert", "ok", 1)

    def test_explain_analyze_and_explain_statement(self):
        db = self.make_db()
        record = self.one_record(
            db, lambda: db.explain_analyze("SELECT a FROM T WHERE b = 1"))
        assert self.shape(record) == ("select", "ok", 4)
        record = self.one_record(
            db, lambda: db.sql("EXPLAIN SELECT a FROM T WHERE b = 1"))
        assert (record.kind, record.status) == ("explain", "ok")
        assert record.rows >= 1 and record.plans_considered >= 1
        assert record.execute_seconds == 0.0

    def test_create_table_as(self):
        db = self.make_db()
        record = self.one_record(
            db, lambda: db.sql("CREATE TABLE U AS SELECT a FROM T "
                               "WHERE b = 0"))
        assert self.shape(record) == ("create_table_as", "ok", 4)
        assert record.execute_seconds > 0

    def test_update_carries_access_and_rows_examined(self):
        db = self.make_db()
        record = self.one_record(
            db, lambda: db.sql("UPDATE T SET b = 9 WHERE a = 3"))
        assert self.shape(record) == ("update", "ok", 1)
        assert (record.access, record.rows_examined) == ("index(T.a)", 1)
        record = self.one_record(db, lambda: db.sql("DELETE FROM T"))
        assert self.shape(record) == ("delete", "ok", 12)
        assert (record.access, record.rows_examined) == ("scan", 12)

    def test_failing_statement(self):
        db = self.make_db()
        record = self.one_record(
            db, lambda: db.sql("SELECT nope FROM T"))
        assert self.shape(record) == ("select", "error", 0)
        assert record.error == "BindError"
        assert "nope" in record.message

    def test_served_sql_op(self):
        from tests.test_server import ServerHarness

        db = self.make_db()
        harness = ServerHarness(db).start()
        try:
            with harness.connect() as client:
                before = db.querylog.recorded
                result = client.sql("SELECT a FROM T WHERE b = 2")
                assert db.querylog.recorded == before + 1
                record = db.querylog.recent(1)[0]
                assert self.shape(record) == ("select", "ok", 4)
                assert record.session == client.conn_id
                assert len(result.rows) == 4
        finally:
            harness.stop()

    def test_removed_switches_are_type_errors(self):
        with pytest.raises(TypeError):
            Options(telemetry=True)
        with pytest.raises(TypeError):
            Database().configure(telemetry=True)
        handle = self.make_db().prepare("SELECT a FROM T")
        with pytest.raises(TypeError):
            handle.execute(timeout=1.0)

    def test_query_id_set_without_the_event_log(self):
        db = self.make_db()
        assert not db.event_log.enabled
        first = db.sql("SELECT a FROM T")
        second = db.sql("INSERT INTO T VALUES (77, 0)")
        assert first.query_id and second.query_id
        assert first.query_id != second.query_id
        assert len(db.event_log) == 0
