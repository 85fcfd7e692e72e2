"""MVCC core semantics: snapshots, version visibility, conflict
detection, freezing, and vacuum.

The contracts under test:

- **snapshot pinning** — an explicit transaction reads the database as
  of its BEGIN for its whole life, regardless of what commits around
  it (``isolation="snapshot"``); ``read-committed`` instead refreshes
  the view per statement;
- **read-own-writes** — a transaction always sees its own uncommitted
  inserts/updates/deletes, while no other session does;
- **first-committer-wins** — the second writer to touch a visible row
  version gets a typed :class:`SerializationError` immediately (no-wait)
  and the first writer's work survives;
- **version lifecycle** — committed versions freeze once no live
  snapshot can need them; vacuum compacts frozen-dead versions and
  is refused only while transactions are open; indexes never leak
  invisible versions;
- **fast path** — a quiesced table (no in-flight versions) serves its
  columnar base unmasked and keeps no stamp arrays.
"""

import pytest

from repro import (
    CatalogError,
    Database,
    DataType,
    SerializationError,
    TransactionError,
)
from repro.storage.mvcc import FROZEN


def make_db():
    db = Database()
    db.create_table("t", [("id", DataType.INT), ("v", DataType.INT)])
    db.insert("t", [(i, 10 * i) for i in range(1, 6)])
    return db


def rows(session_or_db, sql="SELECT * FROM t"):
    return sorted(session_or_db.sql(sql).rows)


# ------------------------------------------------------- snapshot reads

class TestSnapshotIsolation:
    def test_uncommitted_insert_invisible_to_other_session(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        s1.sql("INSERT INTO t VALUES (6, 60)")
        assert (6, 60) in rows(s1)
        assert (6, 60) not in rows(s2)
        assert (6, 60) not in rows(db)
        s1.sql("COMMIT")
        assert (6, 60) in rows(s2)

    def test_snapshot_pinned_across_concurrent_commit(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        before = rows(s1)
        s2.sql("INSERT INTO t VALUES (7, 70)")  # autocommit
        assert rows(s1) == before, "snapshot must not move mid-txn"
        s1.sql("COMMIT")
        assert (7, 70) in rows(s1)

    def test_uncommitted_delete_invisible_to_other_session(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        s1.sql("DELETE FROM t WHERE id = 1")
        assert (1, 10) not in rows(s1)
        assert (1, 10) in rows(s2)
        s1.sql("ROLLBACK")
        assert (1, 10) in rows(s1)

    def test_update_leaves_old_version_for_pinned_snapshot(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s2.sql("BEGIN")
        pinned = rows(s2)
        s1.sql("UPDATE t SET v = 999 WHERE id = 3")
        assert rows(s2) == pinned
        s2.sql("COMMIT")
        assert (3, 999) in rows(s2)

    def test_read_committed_sees_commits_per_statement(self):
        db = make_db()
        s1 = db.new_session()
        s2 = db.new_session()
        from repro import Options
        s1.sql("BEGIN", options=Options(isolation="read-committed"))
        assert (8, 80) not in rows(s1)
        s2.sql("INSERT INTO t VALUES (8, 80)")
        assert (8, 80) in rows(s1), \
            "read-committed refreshes the view every statement"
        s1.sql("COMMIT")

    def test_aggregates_respect_snapshot(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        assert s1.sql("SELECT COUNT(*) AS n FROM t").rows == [(5,)]
        s2.sql("INSERT INTO t VALUES (9, 90)")
        assert s1.sql("SELECT COUNT(*) AS n FROM t").rows == [(5,)]
        s1.sql("COMMIT")
        assert s1.sql("SELECT COUNT(*) AS n FROM t").rows == [(6,)]


# ------------------------------------------------------ own-write reads

class TestReadOwnWrites:
    def test_txn_sees_own_update(self):
        db = make_db()
        s1 = db.new_session()
        s1.sql("BEGIN")
        s1.sql("UPDATE t SET v = 111 WHERE id = 1")
        assert (1, 111) in rows(s1)
        assert (1, 10) not in rows(s1)
        s1.sql("ROLLBACK")
        assert (1, 10) in rows(s1)

    def test_implicit_statement_sees_own_writes_mid_statement(self):
        # CTAS both reads and writes in one implicit transaction
        db = make_db()
        db.sql("CREATE TABLE t2 AS SELECT id, v FROM t WHERE id <= 2")
        assert sorted(db.sql("SELECT * FROM t2").rows) == \
            [(1, 10), (2, 20)]

    def test_savepoint_rewind_restores_own_view(self):
        db = make_db()
        s1 = db.new_session()
        s1.sql("BEGIN")
        s1.sql("SAVEPOINT a")
        s1.sql("UPDATE t SET v = 0 WHERE id = 2")
        assert (2, 0) in rows(s1)
        s1.sql("ROLLBACK TO a")
        assert (2, 20) in rows(s1)
        s1.sql("COMMIT")
        assert (2, 20) in rows(db)


# ------------------------------------------------- write-write conflicts

class TestFirstCommitterWins:
    def test_concurrent_update_same_row_conflicts(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        s2.sql("BEGIN")
        s1.sql("UPDATE t SET v = 1 WHERE id = 1")
        with pytest.raises(SerializationError) as info:
            s2.sql("UPDATE t SET v = 2 WHERE id = 1")
        assert info.value.table == "t"
        s2.sql("ROLLBACK")
        s1.sql("COMMIT")
        assert (1, 1) in rows(db)

    def test_update_vs_delete_conflicts(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        s2.sql("BEGIN")
        s1.sql("DELETE FROM t WHERE id = 2")
        with pytest.raises(SerializationError):
            s2.sql("UPDATE t SET v = 5 WHERE id = 2")
        s2.sql("ROLLBACK")
        s1.sql("COMMIT")

    def test_committed_first_writer_still_conflicts_pinned_snapshot(self):
        # s1 commits before s2 writes: s2's snapshot predates the
        # commit, so its write still loses (lost-update prevention)
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s2.sql("BEGIN")
        rows(s2)  # pin
        s1.sql("UPDATE t SET v = 1 WHERE id = 1")  # autocommit wins
        with pytest.raises(SerializationError):
            s2.sql("UPDATE t SET v = 2 WHERE id = 1")
        s2.sql("ROLLBACK")
        assert (1, 1) in rows(db)

    def test_disjoint_rows_do_not_conflict(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        s2.sql("BEGIN")
        s1.sql("UPDATE t SET v = 1 WHERE id = 1")
        s2.sql("UPDATE t SET v = 2 WHERE id = 2")
        s1.sql("COMMIT")
        s2.sql("COMMIT")
        state = rows(db)
        assert (1, 1) in state and (2, 2) in state

    def test_serialization_failure_aborts_transaction(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        s2.sql("BEGIN")
        s1.sql("UPDATE t SET v = 1 WHERE id = 1")
        with pytest.raises(SerializationError):
            s2.sql("UPDATE t SET v = 2 WHERE id = 1")
        from repro import TransactionAborted
        with pytest.raises(TransactionAborted):
            s2.sql("SELECT * FROM t")
        s2.sql("ROLLBACK")
        s1.sql("COMMIT")

    def test_conflict_metric_counts(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        s2.sql("BEGIN")
        s1.sql("UPDATE t SET v = 1 WHERE id = 1")
        with pytest.raises(SerializationError):
            s2.sql("DELETE FROM t WHERE id = 1")
        s2.sql("ROLLBACK")
        s1.sql("COMMIT")
        metrics = db.metrics()
        assert metrics["txn_serialization_failures_total"]["total"] == 1


# ------------------------------------------------- version lifecycle

class TestVersionLifecycle:
    def test_quiesced_table_scans_its_base(self):
        db = make_db()
        table = db.catalog.table("t")
        assert table.unfrozen_versions == 0 and table.dead_versions == 0
        assert table.columnar_view() is table.compact(), \
            "no in-flight versions -> a scan reads the base unmasked"

    def test_autocommit_update_with_no_snapshots_freezes_eagerly(self):
        db = make_db()
        db.sql("UPDATE t SET v = 0 WHERE id = 1")
        table = db.catalog.table("t")
        # the old version is frozen-dead immediately; no stamp is left
        assert table.unfrozen_versions == 0
        assert table.dead_versions == 1
        assert db.txn.status()["mvcc"]["unfrozen_commits"] == 0

    def test_commit_freezes_once_older_snapshot_departs(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s2.sql("BEGIN")
        rows(s2)  # pin a snapshot older than s1's commit
        s1.sql("BEGIN")
        s1.sql("UPDATE t SET v = 1 WHERE id = 1")
        s1.sql("COMMIT")
        assert db.txn.status()["mvcc"]["unfrozen_commits"] == 1
        s2.sql("COMMIT")  # departure unblocks the freeze
        assert db.txn.status()["mvcc"]["unfrozen_commits"] == 0
        table = db.catalog.table("t")
        assert table.unfrozen_versions == 0

    def test_vacuum_reclaims_dead_versions(self):
        db = make_db()
        db.sql("UPDATE t SET v = v + 1")  # 5 dead versions
        table = db.catalog.table("t")
        assert table.dead_versions == 5
        assert table.physical_count == 10
        report = db.vacuum()
        assert report == {"t": 5}
        assert table.dead_versions == 0
        assert table.physical_count == 5
        assert rows(db) == [(i, 10 * i + 1) for i in range(1, 6)]

    def test_vacuum_refused_with_open_transaction(self):
        db = make_db()
        s1 = db.new_session()
        s1.sql("BEGIN")
        s1.sql("UPDATE t SET v = 0 WHERE id = 1")
        with pytest.raises(TransactionError):
            db.vacuum()
        s1.sql("ROLLBACK")
        db.vacuum()

    def test_auto_vacuum_kicks_in_past_thresholds(self):
        db = Database()
        db.create_table("big", [("id", DataType.INT)])
        db.insert("big", [(i,) for i in range(200)])
        db.sql("UPDATE big SET id = id + 1000")  # 200 dead versions
        table = db.catalog.table("big")
        assert table.dead_versions == 0, \
            "auto-vacuum reclaims once dead >= 64 and >= 25%"
        assert table.physical_count == 200

    def test_index_probe_skips_invisible_versions(self):
        db = make_db()
        db.create_index("t", "id")
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        s1.sql("UPDATE t SET v = 999 WHERE id = 3")
        # s2 probes the index; the new (uncommitted) version of id=3
        # is physically indexed but must stay invisible
        assert s2.sql("SELECT v FROM t WHERE id = 3").rows == [(30,)]
        assert s1.sql("SELECT v FROM t WHERE id = 3").rows == [(999,)]
        s1.sql("COMMIT")
        assert s2.sql("SELECT v FROM t WHERE id = 3").rows == [(999,)]

    def test_cluster_refused_with_inflight_versions(self):
        db = make_db()
        db.create_index("t", "id", kind="sorted")
        s1 = db.new_session()
        s1.sql("BEGIN")
        s1.sql("INSERT INTO t VALUES (6, 60)")
        with pytest.raises(CatalogError):
            db.catalog.table("t").cluster_by("id")
        s1.sql("ROLLBACK")
        db.catalog.table("t").cluster_by("id")

    def test_rollback_of_explicit_insert_leaves_no_versions(self):
        db = make_db()
        s1 = db.new_session()
        s1.sql("BEGIN")
        s1.sql("INSERT INTO t VALUES (6, 60)")
        s1.sql("INSERT INTO t VALUES (7, 70)")
        s1.sql("ROLLBACK")
        table = db.catalog.table("t")
        assert table.physical_count == 5
        assert table.unfrozen_versions == 0 and table.dead_versions == 0

    def test_stamp_arrays_come_and_go(self):
        db = make_db()
        table = db.catalog.table("t")
        assert table._xmin is None, "a loaded table holds no stamps"
        db.sql("UPDATE t SET v = 0 WHERE id = 1")
        assert table._xmin is not None and table._xmax is not None
        db.vacuum()
        assert table._xmin is None and table._xmax is None, \
            "vacuum drops the stamps once what it keeps is quiesced"
        # the arrays grow geometrically: replacing them per row would
        # make a bulk write quadratic
        s1 = db.new_session()
        s1.sql("BEGIN")
        replaced, last = 0, id(table._xmin)
        for i in range(30_000):
            s1.sql("INSERT INTO t VALUES (%d, 0)" % (i + 6))
            if id(table._xmin) != last:
                replaced, last = replaced + 1, id(table._xmin)
        s1.sql("COMMIT")
        assert replaced <= 20, replaced
        assert table.num_rows == 30_005

    def test_frozen_constant_is_zero(self):
        # the sentinel doubles as "visible to all" (xmin) and
        # "dead to all" (xmax); real txn ids start at 1
        assert FROZEN == 0


# ------------------------------------------------------ session handles

class TestSessions:
    def test_sessions_are_independent_transactions(self):
        db = make_db()
        s1, s2 = db.new_session(), db.new_session()
        s1.sql("BEGIN")
        assert s1.in_transaction
        assert not s2.in_transaction
        s2.sql("BEGIN")
        s1.sql("COMMIT")
        assert not s1.in_transaction
        assert s2.in_transaction
        s2.sql("ROLLBACK")

    def test_close_rolls_back_open_transaction(self):
        db = make_db()
        s1 = db.new_session()
        s1.sql("BEGIN")
        s1.sql("INSERT INTO t VALUES (6, 60)")
        s1.close()
        assert (6, 60) not in rows(db)
        with pytest.raises(TransactionError):
            s1.sql("SELECT 1 AS x")

    def test_context_manager_closes(self):
        db = make_db()
        with db.new_session("worker") as s:
            assert s.name == "worker"
            s.sql("BEGIN")
        assert db.txn.status()["sessions"] == 1

    def test_default_session_unaffected_by_named_sessions(self):
        db = make_db()
        s1 = db.new_session()
        s1.sql("BEGIN")
        # db.sql runs on the default session: autocommit, sees old state
        db.sql("INSERT INTO t VALUES (6, 60)")
        assert (6, 60) in rows(db)
        assert (6, 60) not in rows(s1)
        s1.sql("COMMIT")

    def test_checkpoint_refused_while_any_session_open(self):
        db = make_db()
        db.configure(durability="lazy")
        db.sql("INSERT INTO t VALUES (6, 60)")
        s1 = db.new_session()
        s1.sql("BEGIN")
        s1.sql("INSERT INTO t VALUES (7, 70)")
        with pytest.raises(TransactionError):
            db.checkpoint()
        s1.sql("COMMIT")
        db.checkpoint()

    def test_options_isolation_validated(self):
        from repro import Options
        with pytest.raises(Exception):
            Options(isolation="chaotic")
        assert Options(isolation="snapshot").isolation == "snapshot"
