"""Transaction semantics: atomicity, savepoints, aborted state, and the
plan cache across rollback.

The contracts under test:

- **statement-level atomicity** — a failing statement (bad row mid
  ``INSERT``, failing CTAS query) leaves no partial state, inside or
  outside an explicit transaction;
- **transaction-level atomicity** — ``ROLLBACK`` restores rows, index
  contents, statistics (including lazy planner-triggered rebuilds), and
  catalog *content* exactly;
- **plans across rollback** — a plan cached against rolled-back DDL is
  never served, and a plan from before the transaction, whose inputs
  the rollback restores, is served and equals a cold plan;
- **PostgreSQL error semantics** — an error inside ``BEGIN`` aborts the
  transaction; every statement then raises ``TransactionAborted`` until
  ``ROLLBACK``; ``COMMIT`` of an aborted transaction rolls back.
"""

import pytest

from repro import (
    BindError,
    Database,
    DataType,
    ReproError,
    TransactionAborted,
    TransactionError,
)
from repro.optimizer.planner import Planner
from repro.txn import wal as wal_module
from repro.txn.state import state_dict

from tests.conftest import python_calls


def make_db(**configure):
    db = Database()
    if configure:
        db.configure(**configure)
    db.create_table("Emp", [("name", DataType.STR),
                            ("dept", DataType.INT),
                            ("sal", DataType.INT)])
    db.insert("Emp", [("e%d" % i, i % 3, 100 * i) for i in range(12)])
    db.create_index("Emp", "dept")
    db.analyze()
    return db


def snapshot(db):
    return state_dict(db, include_index_entries=True)


# ----------------------------------------------------- statement atomicity

class TestStatementAtomicity:
    def test_bad_row_mid_batch_inserts_nothing(self):
        db = make_db()
        before = snapshot(db)
        rows = [("ok", 1, 1), ("also-ok", 2, 2), ("bad", "not-int", 3)]
        with pytest.raises(ReproError):
            db.insert("Emp", rows)
        assert snapshot(db) == before  # rows AND index contents

    def test_bad_row_mid_batch_inside_explicit_txn(self):
        db = make_db()
        db.sql("BEGIN")
        db.insert("Emp", [("pre", 0, 0)])
        with pytest.raises(ReproError):
            db.insert("Emp", [("x", 1, 1), ("bad", None, "nope")])
        db.txn.clear_aborted()  # inspect mid-transaction state
        names = [r[0] for r in db.catalog.table("Emp").rows]
        assert "pre" in names and "x" not in names
        db.sql("ROLLBACK")

    def test_failing_ctas_leaves_no_table(self):
        db = make_db()
        before = snapshot(db)
        with pytest.raises(ReproError):
            db.sql("CREATE TABLE Bad AS SELECT nonexistent FROM Emp")
        assert not db.catalog.has_table("Bad")
        assert snapshot(db) == before

    def test_script_statement_atomicity_uses_undo(self):
        db = make_db()
        script = (
            "INSERT INTO Emp VALUES ('s1', 1, 1);"
            "INSERT INTO Emp VALUES ('s2', 2, 2), ('bad', 'x', 3);"
            "INSERT INTO Emp VALUES ('s3', 3, 3);"
        )
        with pytest.raises(ReproError):
            list(db.execute_script(script))
        names = [r[0] for r in db.catalog.table("Emp").rows]
        assert "s1" in names          # earlier statements persist
        assert "s2" not in names      # failing statement fully undone
        assert "s3" not in names      # later statements never ran


# --------------------------------------------------------------- rollback

class TestRollback:
    def test_rollback_restores_rows_and_indexes(self):
        db = make_db()
        before = snapshot(db)
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('tmp', 9, 9)")
        db.sql("ROLLBACK")
        assert snapshot(db) == before

    def test_rollback_restores_ddl(self):
        db = make_db()
        before = snapshot(db)
        db.sql("BEGIN")
        db.sql("CREATE TABLE Scratch (a INT)")
        db.sql("INSERT INTO Scratch VALUES (1)")
        db.sql("CREATE INDEX ON Emp (sal)")
        db.create_view("V", "SELECT name FROM Emp")
        db.sql("ROLLBACK")
        assert snapshot(db) == before
        assert not db.catalog.has_table("Scratch")
        assert not db.catalog.has_view("V")

    def test_rollback_restores_dropped_table_with_stats(self):
        db = make_db()
        before = snapshot(db)
        db.sql("BEGIN")
        db.sql("DROP TABLE Emp")
        assert not db.catalog.has_table("Emp")
        db.sql("ROLLBACK")
        assert snapshot(db) == before  # rows, indexes, AND stats back

    def test_rollback_restores_stats_after_explicit_analyze(self):
        db = make_db()
        before = snapshot(db)
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('tmp', 9, 999999)")
        db.analyze("Emp")  # stats now see the new row
        db.sql("ROLLBACK")
        assert snapshot(db) == before

    def test_rollback_restores_stats_after_lazy_planner_analyze(self):
        """The planner computing stats lazily mid-transaction must be
        undone too — otherwise rolled-back rows leak into estimates."""
        db = Database()
        db.create_table("R", [("x", DataType.INT)])
        db.insert("R", [(i,) for i in range(5)])
        assert not db.catalog.has_stats("R")
        db.sql("BEGIN")
        db.sql("INSERT INTO R VALUES (999)")
        db.sql("SELECT x FROM R WHERE x > 3")  # plans -> lazy analyze
        assert db.catalog.has_stats("R")
        db.sql("ROLLBACK")
        assert not db.catalog.has_stats("R")

    def test_commit_persists(self):
        db = make_db()
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('kept', 1, 1)")
        db.sql("CREATE TABLE Kept (a INT)")
        db.sql("COMMIT")
        assert "kept" in [r[0] for r in db.catalog.table("Emp").rows]
        assert db.catalog.has_table("Kept")


# -------------------------------------------------------------- savepoints

class TestSavepoints:
    def test_partial_rollback(self):
        db = make_db()
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('a', 1, 1)")
        db.sql("SAVEPOINT sp")
        db.sql("INSERT INTO Emp VALUES ('b', 2, 2)")
        db.sql("ROLLBACK TO SAVEPOINT sp")
        db.sql("COMMIT")
        names = [r[0] for r in db.catalog.table("Emp").rows]
        assert "a" in names and "b" not in names

    def test_savepoint_survives_rollback_to_it(self):
        db = make_db()
        db.sql("BEGIN")
        db.sql("SAVEPOINT sp")
        db.sql("INSERT INTO Emp VALUES ('x', 1, 1)")
        db.sql("ROLLBACK TO SAVEPOINT sp")
        db.sql("ROLLBACK TO SAVEPOINT sp")  # still there (PG semantics)
        db.sql("ROLLBACK")

    def test_later_savepoints_die_with_the_rollback(self):
        db = make_db()
        db.sql("BEGIN")
        db.sql("SAVEPOINT outer_sp")
        db.sql("SAVEPOINT inner_sp")
        db.sql("ROLLBACK TO SAVEPOINT outer_sp")
        with pytest.raises(TransactionError):
            db.sql("ROLLBACK TO SAVEPOINT inner_sp")
        db.sql("ROLLBACK")

    def test_release(self):
        db = make_db()
        db.sql("BEGIN")
        db.sql("SAVEPOINT sp")
        db.sql("RELEASE SAVEPOINT sp")
        with pytest.raises(TransactionError):
            db.sql("ROLLBACK TO SAVEPOINT sp")
        db.sql("ROLLBACK")

    def test_savepoint_outside_txn_is_typed(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db.sql("SAVEPOINT sp")
        with pytest.raises(TransactionError):
            db.sql("RELEASE SAVEPOINT sp")

    def test_savepoint_clears_aborted_state(self):
        db = make_db()
        db.sql("BEGIN")
        db.sql("SAVEPOINT sp")
        with pytest.raises(ReproError):
            db.sql("INSERT INTO Emp VALUES ('x', 'bad', 1)")
        with pytest.raises(TransactionAborted):
            db.sql("SELECT name FROM Emp")
        db.sql("ROLLBACK TO SAVEPOINT sp")  # resurrects the transaction
        db.sql("INSERT INTO Emp VALUES ('y', 1, 1)")
        db.sql("COMMIT")
        assert "y" in [r[0] for r in db.catalog.table("Emp").rows]


# ----------------------------------------------------------- aborted state

class TestAbortedState:
    def test_error_aborts_until_rollback(self):
        db = make_db()
        db.sql("BEGIN")
        with pytest.raises(ReproError):
            db.sql("SELECT nope FROM Emp")
        for text in ("SELECT name FROM Emp",
                     "INSERT INTO Emp VALUES ('x', 1, 1)",
                     "SAVEPOINT sp",
                     "BEGIN"):
            with pytest.raises(TransactionAborted):
                db.sql(text)
        db.sql("ROLLBACK")
        db.sql("SELECT name FROM Emp")  # usable again

    def test_commit_of_aborted_txn_rolls_back(self):
        db = make_db()
        before = snapshot(db)
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('x', 1, 1)")
        with pytest.raises(ReproError):
            db.sql("SELECT nope FROM Emp")
        result = db.sql("COMMIT")
        assert result.statement_kind == "rollback"
        assert snapshot(db) == before

    def test_on_error_continue_keeps_txn_usable(self):
        db = make_db()
        db.txn.on_error = "continue"
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('a', 1, 1)")
        with pytest.raises(ReproError):
            db.sql("INSERT INTO Emp VALUES ('b', 'bad', 1)")
        db.sql("INSERT INTO Emp VALUES ('c', 2, 2)")  # no abort
        db.sql("COMMIT")
        names = [r[0] for r in db.catalog.table("Emp").rows]
        assert "a" in names and "b" not in names and "c" in names

    def test_txn_control_misuse_is_typed(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db.sql("COMMIT")
        with pytest.raises(TransactionError):
            db.sql("ROLLBACK")
        db.sql("BEGIN")
        with pytest.raises(TransactionError):
            db.sql("BEGIN")  # no nesting: use SAVEPOINT
        db.sql("ROLLBACK")


# ------------------------------------------ plan cache across rollback

class TestPlanCacheVersioning:
    """Plans across versions of the content: rollback restores what a
    plan read, so what is served is what a cold planner plans."""

    QUERY = "SELECT name FROM Emp WHERE dept = 1"

    @staticmethod
    def assert_cold(db, result, sql):
        cold = Planner(db.catalog, db.config).plan(db.bind(sql))
        assert result.plan.explain() == cold.explain()
        assert result.plan.est_cost == cold.est_cost
        assert result.plan.est_components == cold.est_components

    def test_plan_cached_inside_aborted_txn_never_served(self):
        """Warm the cache on DDL created inside a transaction, roll the
        DDL back, and re-run: the rolled-back plan must miss, also once
        a new table takes the old name."""
        db = make_db()
        db.sql("BEGIN")
        db.sql("CREATE TABLE Tmp (a INT)")
        db.sql("INSERT INTO Tmp VALUES (1)")
        # plan + cache a query against the uncommitted table
        for _ in range(2):
            assert db.sql("SELECT a FROM Tmp").rows == [(1,)]
        db.sql("ROLLBACK")
        # the table is gone; the cached plan must not resurrect it
        with pytest.raises(ReproError):
            db.sql("SELECT a FROM Tmp")
        db.sql("CREATE TABLE Tmp (a INT)")
        result = db.sql("SELECT a FROM Tmp")
        assert result.rows == [] and not result.cached_plan

    def test_rollback_restores_what_plans_read(self):
        db = make_db()
        before = db.catalog.inputs(("emp",))
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('x', 1, 1)")
        db.sql("CREATE INDEX ON Emp (sal)")
        db.analyze("Emp")
        assert db.catalog.inputs(("emp",)) != before
        db.sql("ROLLBACK")
        assert db.catalog.inputs(("emp",)) == before

    def test_cached_plan_from_before_txn_is_served_after_rollback(self):
        """Rollback restores the content a pre-transaction plan read, so
        serving it is exact — and gives the same rows."""
        db = make_db()
        baseline = sorted(db.sql(self.QUERY).rows)
        db.sql(self.QUERY)  # the second miss stores the plan
        assert db.sql(self.QUERY).cached_plan
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('x', 1, 1)")
        db.sql("ROLLBACK")
        served = db.sql(self.QUERY)
        assert served.cached_plan
        self.assert_cold(db, served, self.QUERY)
        assert sorted(served.rows) == baseline

    def test_empty_rollback_keeps_cached_plans(self):
        db = make_db()
        for _ in range(2):
            db.sql(self.QUERY)
        db.sql("BEGIN")
        db.sql("ROLLBACK")
        assert db.sql(self.QUERY).cached_plan
        assert db.cache_stats()["invalidations"] == 0

    def test_prepared_statement_replans_after_rollback(self):
        """The entry last stored was planned inside the transaction,
        on a row count the rollback took back."""
        db = make_db()
        stmt = db.prepare("SELECT name FROM Emp WHERE sal > ?")
        baseline = sorted(stmt.execute((500,)).rows)
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('x', 1, 999999)")
        assert not stmt.execute((500,)).cached_plan
        db.sql("ROLLBACK")
        result = stmt.execute((500,))
        assert not result.cached_plan
        self.assert_cold(db, result, stmt.text)
        assert sorted(result.rows) == baseline


# ------------------------------------------------------- events + metrics

class TestObservability:
    def test_txn_events_have_stable_ids_and_no_query_id(self):
        db = make_db()
        db.event_log.enable()
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('a', 1, 1)")
        db.sql("COMMIT")
        db.sql("BEGIN")
        db.sql("ROLLBACK")
        begins = db.event_log.events("txn_begin")
        commits = db.event_log.events("txn_commit")
        rollbacks = db.event_log.events("txn_rollback")
        # ids are stable and distinct (implicit autocommit transactions
        # consume ids too, so the absolute numbers float)
        first, second = [e["txn"] for e in begins]
        assert first != second
        assert [e["txn"] for e in commits] == [first]
        assert [e["txn"] for e in rollbacks] == [second]
        for event in begins + commits + rollbacks:
            assert "query_id" not in event  # never pollutes query chains

    def test_metrics_count_txn_outcomes(self):
        db = Database()
        db.create_table("R", [("x", DataType.INT)])
        db.sql("BEGIN")
        db.sql("INSERT INTO R VALUES (1)")
        db.sql("COMMIT")
        db.sql("BEGIN")
        db.sql("ROLLBACK")
        db.insert("R", [(2,)])  # implicit/autocommit
        metrics = db.metrics()
        assert metrics["txn_begins_total"]["by_label"]["explicit"] == 2
        assert metrics["txn_commits_total"]["by_label"]["explicit"] == 1
        assert metrics["txn_rollbacks_total"]["by_label"]["explicit"] == 1
        assert metrics["txn_commits_total"]["by_label"]["implicit"] >= 1

    def test_wal_metrics_section_appears_when_attached(self):
        from repro import MemoryStorage, WriteAheadLog
        db = Database()
        assert "wal" not in db.metrics()
        db.configure(durability="commit")
        db.attach_wal(WriteAheadLog(MemoryStorage()))
        db.create_table("R", [("x", DataType.INT)])
        db.insert("R", [(1,)])
        wal_stats = db.metrics()["wal"]
        assert wal_stats["records_written"] >= 4  # 2 ops + 2 commits
        assert wal_stats["syncs"] >= 2


# ------------------------------------------------------------- durability

class TestDurabilityPlumbing:
    def test_durability_off_writes_nothing(self):
        from repro import MemoryStorage, WriteAheadLog
        db = Database()
        wal = WriteAheadLog(MemoryStorage())
        db.attach_wal(wal)  # attached but durability is off
        db.create_table("R", [("x", DataType.INT)])
        db.insert("R", [(1,)])
        assert wal.records() == []

    def test_durability_off_write_path_never_touches_the_wal(self):
        """With durability off a write buffers no redo record and enters
        no function of the WAL module, implicit or explicit txn."""
        db = make_db()
        entered, _ = python_calls(lambda: (
            db.insert("Emp", [("x", 1, 5)]),
            db.sql("UPDATE Emp SET sal = sal + 1 WHERE dept = 1"),
            db.sql("DELETE FROM Emp WHERE name = 'e0'")))
        assert len(entered) > 100  # the hook saw the writes run
        assert not [code.co_name for code in entered
                    if code.co_filename == wal_module.__file__]
        db.sql("BEGIN")
        db.sql("INSERT INTO Emp VALUES ('y', 2, 7)")
        txn = db.txn.current
        assert not txn.log_redo and txn.redo == []
        db.sql("COMMIT")

    def test_lazy_does_not_sync_commit_does(self):
        from repro import MemoryStorage, WriteAheadLog
        for level, syncs in (("lazy", 0), ("commit", 1)):
            db = Database()
            db.configure(durability=level)
            db.attach_wal(WriteAheadLog(MemoryStorage()))
            db.create_table("R", [("x", DataType.INT)])
            assert db.txn._wal.stats()["syncs"] == syncs, level

    def test_wal_path_opens_a_file(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = Database()
        db.configure(durability="commit", wal_path=path)
        db.create_table("R", [("x", DataType.INT)])
        db.insert("R", [(1,)])
        from repro.txn import iter_records, split_header
        with open(path, "rb") as handle:
            body = split_header(handle.read())
        ops = [r["op"] for r, _ in iter_records(body)]
        assert ops == ["create_table", "commit", "insert", "commit"]
        db.txn._wal.close()

    def test_rolled_back_txn_never_reaches_the_wal(self):
        from repro import MemoryStorage, WriteAheadLog
        db = Database()
        db.configure(durability="commit")
        wal = WriteAheadLog(MemoryStorage())
        db.attach_wal(wal)
        db.create_table("R", [("x", DataType.INT)])
        db.sql("BEGIN")
        db.sql("INSERT INTO R VALUES (99)")
        db.sql("ROLLBACK")
        assert [r["op"] for r in wal.records()] == ["create_table",
                                                    "commit"]

    def test_invalid_durability_rejected(self):
        db = Database()
        with pytest.raises(ValueError):
            db.configure(durability="eventually")

    def test_checkpoint_requires_durability_and_no_txn(self):
        db = make_db()
        with pytest.raises(TransactionError):
            db.checkpoint()  # durability off
        db2 = make_db(durability="commit")
        db2.sql("BEGIN")
        with pytest.raises(TransactionError):
            db2.checkpoint()  # uncommitted data in tables
        db2.sql("ROLLBACK")
        record = db2.checkpoint()
        assert record["op"] == "checkpoint"
        assert record["commits"] == db2.txn.wal_commits


# ----------------------------------------------------------- SQL front end

class TestFrontEnd:
    @pytest.mark.parametrize("text,kind", [
        ("BEGIN", "begin"),
        ("BEGIN TRANSACTION", "begin"),
    ])
    def test_begin_spellings(self, text, kind):
        db = make_db()
        assert db.sql(text).statement_kind == kind
        db.sql("ROLLBACK")

    def test_commit_transaction_spelling(self):
        db = make_db()
        db.sql("BEGIN")
        assert db.sql("COMMIT TRANSACTION").statement_kind == "commit"

    def test_rollback_to_without_savepoint_keyword(self):
        db = make_db()
        db.sql("BEGIN")
        db.sql("SAVEPOINT sp")
        db.sql("ROLLBACK TO sp")  # SAVEPOINT keyword is optional
        db.sql("ROLLBACK")

    def test_txn_statements_are_not_bindable(self):
        db = make_db()
        with pytest.raises(BindError):
            db.bind("BEGIN")
        with pytest.raises(BindError):
            db.plan("COMMIT")

    def test_txn_statements_via_execute_script(self):
        db = make_db()
        results = db.execute_script(
            "BEGIN; INSERT INTO Emp VALUES ('s', 1, 1); COMMIT;"
        )
        assert [r.statement_kind for r in results] == \
            ["begin", "insert", "commit"]
        assert "s" in [r[0] for r in db.catalog.table("Emp").rows]

    def test_prepared_txn_statement(self):
        db = make_db()
        stmt = db.prepare("BEGIN")
        assert stmt.execute().statement_kind == "begin"
        db.sql("ROLLBACK")


# --------------------------------------------------------- CTAS atomicity

def test_ctas_is_transactional():
    db = make_db()
    db.sql("BEGIN")
    db.sql("CREATE TABLE Names AS SELECT name FROM Emp")
    assert db.catalog.table("Names").num_rows == 12
    db.sql("ROLLBACK")
    assert not db.catalog.has_table("Names")
