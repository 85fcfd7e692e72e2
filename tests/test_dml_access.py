"""UPDATE/DELETE target discovery: index-driven vs. the full-scan matcher.

``TransactionManager._match`` finds a statement's target rows through
an index of the table whenever a WHERE conjunct is sargable. The
matcher it replaced — walk every physical version, test visibility from
the row's own ``xmin``/``xmax`` stamps, evaluate the WHERE on each —
lives on here as the reference: every seeded schedule runs on two
databases, one of them with :func:`scan_match` patched in, and the two
must agree statement by statement on matched counts, read results and
``SerializationError`` verdicts, and at the end on the table (also
against stdlib ``sqlite3``) and on the **WAL bytes**.

Along the way, after every write: a scan of the written table stays
columnar (``fallback_batches == 0``) and returns the rows the stamps
say the snapshot sees, and ``num_rows`` — computed from the stamps —
equals the number of rows each open snapshot actually sees.

The schedules also move the storage underneath: a scan folds fresh
rows into the columnar base and a multi-row INSERT then fails on its
last row, or a ROLLBACK retracts rows a scan already folded; a
quiesced table is vacuumed, clustered, or checkpointed and recovered
(the recovered database's ``fingerprint`` must equal the live one's);
and some shapes keep an int beyond 64 bits in ``v``, so that column
stays a Python list in the base.

``DML_SCHEDULES`` (environment) sets the number of schedules; tier-1
runs 30, CI's crash-recovery job 200.
"""

import os
import random
import sqlite3

import pytest

from repro import Database, DataType, SchemaError, SerializationError
from repro import recover
from repro.executor.vectorize import Batch
from repro.storage.mvcc import FROZEN, NOT_DELETED
from repro.txn import fingerprint

N_SCHEDULES = int(os.environ.get("DML_SCHEDULES", "30"))
STEPS = 40

#: (key dtype, index kind, NULL keys, big v) — a sorted index refuses
#: NULLs; "big v" adds the row (NULL, 0, BIG), which no write matches
SHAPES = [
    (DataType.INT, "hash", False, False),
    (DataType.INT, "sorted", False, False),
    (DataType.INT, None, False, False), (DataType.INT, "hash", True, False),
    (DataType.INT, None, True, False), (DataType.STR, "hash", False, False),
    (DataType.STR, "sorted", False, False),
    (DataType.STR, "hash", True, False),
    (DataType.INT, "hash", True, True), (DataType.STR, None, True, True),
]

#: beyond int64: the column holding it cannot encode and stays a list
BIG = 2 ** 70
#: what sqlite3 (64-bit integers) stores for BIG; it compares to every
#: literal of the schedules as BIG does
ORACLE_BIG = 2 ** 62


# ---------------------------------------------------------- the reference

def visible_by_stamps(table):
    """Physical positions the current snapshot sees, decided row by row
    from the version's own stamps (the pre-index matcher's loop)."""
    snap = table._mvcc.read_view()
    out = []
    for pos in range(table.physical_count):
        if table._xmin is None:  # quiesced: FROZEN and not deleted
            xmin, xmax = FROZEN, NOT_DELETED
        else:
            xmin, xmax = int(table._xmin[pos]), int(table._xmax[pos])
        if xmin != FROZEN and not snap.sees(xmin):
            continue
        if xmax != NOT_DELETED and (xmax == FROZEN or snap.sees(xmax)):
            continue
        out.append(pos)
    return out


def scan_match(table, where):
    """Drop-in for ``TransactionManager._match``: no index, ever."""
    candidates = visible_by_stamps(table)
    matched = [pos for pos in candidates
               if where is None or where.eval(table.row_at(pos)) is True]
    rows = Batch.from_rows([table.row_at(pos) for pos in matched],
                           len(table.schema))
    return matched, rows, "scan", len(candidates)


# -------------------------------------------------------------- schedules

class Shape:
    def __init__(self, rng):
        self.dtype, self.index, self.nulls, self.big = rng.choice(SHAPES)
        self.rng = rng

    def key(self, n):
        return n if self.dtype is DataType.INT else "k%02d" % n

    def lit(self, n=None):
        n = self.rng.randrange(12) if n is None else n
        return repr(self.key(n))

    def rows(self):
        rng = self.rng
        rows = [(self.key(rng.randrange(10)), rng.randrange(4),
                 rng.randrange(100)) for _ in range(30)]
        if self.nulls:
            rows += [(None, rng.randrange(4), rng.randrange(100))
                     for _ in range(4)]
        if self.big:
            rows.append((None, 0, BIG))
        return rows

    def insert(self):
        """A multi-row INSERT text that succeeds."""
        return "INSERT INTO t VALUES %s" % ", ".join(
            "(%s, %d, %d)" % (self.lit(), self.rng.randrange(4),
                              self.rng.randrange(100))
            for _ in range(self.rng.randrange(1, 4)))

    def bad_insert(self):
        """A multi-row INSERT whose last row has a STR ``v``: the rows
        before it are appended, then the statement is undone."""
        return "INSERT INTO t VALUES (%s, 1, 5), (%s, 2, 'x')" % (
            self.lit(), self.lit())

    def write(self):
        """One UPDATE/DELETE/INSERT text."""
        rng, lit = self.rng, self.lit
        grp = rng.randrange(4)
        choices = [
            "UPDATE t SET v = v + 1 WHERE id = %s" % lit(),
            "UPDATE t SET v = v + 1 WHERE %s = id" % lit(),
            "UPDATE t SET v = v + 2 WHERE id >= %s" % lit(),
            "UPDATE t SET v = 0 WHERE id = %s AND grp = %d" % (lit(), grp),
            "UPDATE t SET grp = %d WHERE id < %s AND v > 50" % (grp, lit()),
            "UPDATE t SET id = %s WHERE id = %s" % (lit(), lit()),
            "DELETE FROM t WHERE id = %s" % lit(),
            "DELETE FROM t WHERE id = %s OR grp = %d AND v < 20"
            % (lit(), grp),
            "DELETE FROM t WHERE id > %s AND v < 30" % lit(),
            "UPDATE t SET v = 1 WHERE id = NULL",
            "UPDATE t SET v = t.v + 1 WHERE t.id = %s" % lit(),
            "DELETE FROM t WHERE id IN (%s, %s)" % (lit(), lit()),
            "DELETE FROM t WHERE id NOT IN (%s, %s)" % (lit(), lit()),
            "UPDATE t SET v = 0 WHERE NOT (id < %s)" % lit(),
            "INSERT INTO t VALUES (%s, %d, %d)"
            % (lit(), grp, rng.randrange(100)),
            "INSERT INTO t VALUES (%s, %d, %d)"
            % (lit(), grp, rng.randrange(100)),
        ]
        if self.dtype is DataType.INT:
            # SET changes the probed key: targets are located before
            # the first version is stamped, so nothing is re-visited
            choices.append(
                "UPDATE t SET id = id + 1 WHERE id >= %s" % lit())
        if self.nulls:
            choices.append("INSERT INTO t VALUES (NULL, %d, 7)" % grp)
        return rng.choice(choices)

    def read(self):
        return self.rng.choice([
            "SELECT * FROM t WHERE id = %s" % self.lit(),
            "SELECT grp, SUM(v), COUNT(*) FROM t GROUP BY grp",
            "SELECT * FROM t WHERE id >= %s AND v > 10" % self.lit(),
        ])


class Side:
    """One database (under test, or the scan reference) with the main
    session ``a`` and a second session ``b``."""

    def __init__(self, shape, rows, reference):
        self.shape = shape
        self.db = db = Database()
        db.configure(durability="lazy")
        if reference:
            db.txn._match = scan_match
        db.create_table("t", [("id", shape.dtype), ("grp", DataType.INT),
                              ("v", DataType.INT)])
        db.insert("t", rows)
        if shape.index:
            db.create_index("t", "id", shape.index)
        self.table = db.catalog.table("t")
        self.sessions = {"a": db.new_session("a"), "b": db.new_session("b")}

    def run(self, who, text):
        """Rows of the statement, or the verdict's name."""
        try:
            return sorted(self.sessions[who].sql(text).rows, key=repr)
        except (SerializationError, SchemaError) as err:
            return type(err).__name__

    def check_storage(self):
        """Stamp-derived counts vs. the rows; columnar scan vs. the
        stamp-visible rows — under every session's snapshot."""
        table = self.table

        def look():
            with self.db.txn.statement_snapshot():
                return (table.num_rows, len(table.rows),
                        [table.row_at(pos)
                         for pos in visible_by_stamps(table)],
                        list(table.rows))

        for session in self.sessions.values():
            seen = session._run(look)
            assert seen[0] == seen[1] == len(seen[2])
            assert seen[2] == seen[3]
            query = "SELECT * FROM t WHERE v >= 0"
            result = session.sql(query)
            scan, = [span for span in result.trace.operator_spans()
                     if span.node_type == "SeqScanNode"]
            if not self.shape.big:  # a list column runs interpreted
                assert scan.extras["fallback_batches"] == 0
                assert scan.extras.get("kernel_batches", 0) \
                    >= bool(seen[0])
            assert result.rows == seen[2]

    def wal_bytes(self):
        return self.db.txn.wal().storage.read_all()

    def maintain(self, what):
        """One maintenance step on the quiesced table."""
        if what == "vacuum":
            return self.db.vacuum()
        if what.startswith("cluster"):
            self.table.cluster_by(what.split()[1])
            return [tuple(row) for row in self.table.rows]
        # checkpoint, then recover from the truncated log
        self.db.vacuum()  # index entries of dead versions are physical
        self.db.checkpoint()
        recovered, report = recover(self.wal_bytes())
        assert report.checkpoint_used
        assert fingerprint(recovered) == fingerprint(self.db)
        return fingerprint(self.db)


def run_schedule(seed):
    rng = random.Random(seed)
    shape = Shape(rng)
    rows = shape.rows()
    sides = [Side(shape, rows, reference=False),
             Side(shape, rows, reference=True)]
    oracle = sqlite3.connect(":memory:", isolation_level=None)
    oracle.execute("CREATE TABLE t (id, grp, v)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?)", [
        (key, grp, ORACLE_BIG if v == BIG else v) for key, grp, v in rows])
    #: session a's uncommitted writes, replayed in sqlite3 at COMMIT;
    #: b never commits a write, so a's history is the serial history
    pending, in_txn = [], {"a": False, "b": False}
    mark = [None]  # len(pending) at a's latest SAVEPOINT sp

    def step(who, text, label):
        got = [side.run(who, text) for side in sides]
        assert got[0] == got[1], "%s: %s" % (label, text)
        return got[0]

    def end(who, how):
        step(who, how, "seed %d" % seed)
        in_txn[who] = False
        if who == "a":
            if how == "COMMIT":
                for text in pending:
                    oracle.execute(text)
            del pending[:]
            mark[0] = None

    for at in range(STEPS):
        label = "seed %d step %d" % (seed, at)
        draw = rng.random()
        if draw < 0.08 and not in_txn["a"]:
            step("a", "BEGIN", label)
            in_txn["a"] = True
        elif draw < 0.16 and in_txn["a"]:
            end("a", rng.choice(["COMMIT", "COMMIT", "ROLLBACK"]))
        elif draw < 0.22 and not in_txn["b"]:
            # b pins a snapshot: a's later writes must stay stamped
            step("b", "BEGIN", label)
            step("b", shape.read(), label)
            in_txn["b"] = True
        elif draw < 0.30 and in_txn["b"]:
            # b writes into a's wake (conflict verdicts must agree) and
            # always rolls back
            step("b", shape.write(), label)
            end("b", "ROLLBACK")
        elif draw < 0.35 and in_txn["a"]:
            if mark[0] is not None and rng.random() < 0.5:
                step("a", "ROLLBACK TO SAVEPOINT sp", label)
                del pending[mark[0]:]
            else:
                step("a", "SAVEPOINT sp", label)
                mark[0] = len(pending)
        elif draw < 0.40 and not (in_txn["a"] or in_txn["b"]):
            what = rng.choice(["vacuum", "cluster id", "cluster v",
                               "checkpoint"])
            assert sides[0].maintain(what) == sides[1].maintain(what)
        elif draw < 0.45:
            # a scan folds a's new rows into the columnar base; then
            # ROLLBACK retracts them (inside a transaction), or a
            # multi-row INSERT appends past them and fails on its last
            # row
            text = shape.insert()
            step("a", text, label)
            if in_txn["a"]:
                pending.append(text)
            else:
                oracle.execute(text)
            step("a", "SELECT grp, SUM(v), COUNT(*) FROM t GROUP BY grp",
                 label)
            if not (in_txn["a"] and rng.random() < 0.5):
                assert step("a", shape.bad_insert(), label) \
                    == "SchemaError"
            if in_txn["a"]:  # the failed INSERT aborted it
                end("a", "ROLLBACK")
            for side in sides:
                side.check_storage()
        elif draw < 0.58:
            step(rng.choice("ab"), shape.read(), label)
        else:
            text = shape.write()
            verdict = step("a", text, label)
            if verdict == "SerializationError":
                if in_txn["a"]:
                    end("a", "ROLLBACK")
            elif in_txn["a"]:
                pending.append(text)
            else:
                oracle.execute(text)
            for side in sides:
                side.check_storage()
    for who in "ba":
        if in_txn[who]:
            end(who, "COMMIT" if who == "a" else "ROLLBACK")
    final = [side.run("a", "SELECT * FROM t") for side in sides]
    assert final[0] == final[1]
    assert sorted(((key, grp, ORACLE_BIG if v == BIG else v)
                   for key, grp, v in final[0]), key=repr) == sorted(
        oracle.execute("SELECT * FROM t").fetchall(), key=repr)
    assert sides[0].wal_bytes() == sides[1].wal_bytes()
    assert sides[0].maintain("checkpoint") \
        == sides[1].maintain("checkpoint")
    counters = sides[0].db.metrics()
    return shape, counters.get("dml_access_total", {}).get("by_label", {})


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_schedule_matches_scan_reference(seed):
    shape, access = run_schedule(seed)
    if shape.index is None:
        assert "index" not in access
    else:
        assert access.get("index", 0) > 0


def test_shapes_are_all_exercised():
    """The first 30 seeds (tier-1's) reach every table shape."""
    seen = {(s.dtype, s.index, s.nulls, s.big)
            for s in (Shape(random.Random(seed)) for seed in range(30))}
    assert seen == set(SHAPES)


# ------------------------------------------------------------ access path

def _keyed(n, kind="hash"):
    db = Database()
    db.create_table("t", [("id", DataType.INT), ("v", DataType.INT)])
    db.insert("t", [(i, 0) for i in range(n)])
    db.create_index("t", "id", kind)
    return db


def test_keyed_update_examines_only_the_keys_versions():
    """Scaling, in exact counts: on 50 000 rows a keyed UPDATE looks at
    the versions of that key, not at the table. The second session's
    snapshot keeps every old version stamped and in the index."""
    db = _keyed(50_000)
    db.event_log.enable()
    reader = db.new_session()
    reader.sql("BEGIN")
    assert reader.sql("SELECT v FROM t WHERE id = 123").rows == [(0,)]
    for _ in range(3):
        assert db.sql("UPDATE t SET v = v + 1 WHERE id = 123"
                      ).rows == [(1,)]
    assert db.sql("DELETE FROM t WHERE id = 77 AND v = 0").rows == [(1,)]
    table = db.catalog.table("t")
    assert len(table.index_on("id").probe(123)) == 4  # versions of 123
    metrics = db.metrics()
    assert metrics["dml_rows_examined_total"]["total"] == 4
    assert metrics["dml_access_total"]["by_label"] == {"index": 4}
    executes = [event for event in db.event_log.events()
                if event["event"] == "execute" and "access" in event]
    assert [(e["access"], e["rows_examined"], e["rows"])
            for e in executes] == [("index(t.id)", 1, 1)] * 4
    assert reader.sql("SELECT v FROM t WHERE id = 123").rows == [(0,)]
    reader.sql("COMMIT")
    assert db.sql("SELECT v FROM t WHERE id = 123").rows == [(3,)]
    assert table.num_rows == len(table.rows) == 49_999


def test_unsargable_where_scans_and_says_so():
    db = _keyed(200)
    db.event_log.enable()
    assert db.sql("DELETE FROM t WHERE id = 3 OR id = 4").rows == [(2,)]
    assert db.sql("UPDATE t SET v = 1 WHERE id > 190").rows == [(9,)]
    assert db.sql("UPDATE t SET v = 2").rows == [(198,)]
    executes = [(e["access"], e["rows_examined"])
                for e in db.event_log.events()
                if e["event"] == "execute"]
    # OR is not a conjunct; a hash index answers no range; no WHERE
    assert executes == [("scan", 200), ("scan", 198), ("scan", 198)]
    assert db.metrics()["dml_access_total"]["by_label"] == {"scan": 3}


def test_range_probe_and_equality_preferred_over_range():
    db = _keyed(200, kind="sorted")
    db.event_log.enable()
    assert db.sql("UPDATE t SET v = 1 WHERE id > 190").rows == [(9,)]
    assert db.sql("DELETE FROM t WHERE id >= 10 AND 20 = id"
                  ).rows == [(1,)]
    executes = [(e["access"], e["rows_examined"])
                for e in db.event_log.events()
                if e["event"] == "execute"]
    assert executes == [("index(t.id)", 9), ("index(t.id)", 1)]


def test_replayed_deletes_go_through_an_index(monkeypatch):
    """WAL replay locates each deleted value by an index probe; only a
    table without one (or a NULL key) is walked."""
    db = Database()
    db.create_table("t", [("id", DataType.INT), ("v", DataType.INT)])
    db.insert("t", [(i % 50, i) for i in range(500)] + [(None, -1)])
    db.create_index("t", "id")
    walks = []
    candidates = db.txn._candidates
    monkeypatch.setattr(
        db.txn, "_candidates",
        lambda table, index=None, **kw: walks.append(index is None)
        or candidates(table, index, **kw))
    # duplicates of one value go in order: lowest position first
    db.insert("t", [(7, 7)])
    assert db.delete_rows("t", [(7, 7), (8, 458), (7, 7)]) == 3
    assert walks == [False, False, False]
    assert db.delete_rows("t", [(None, -1)]) == 1
    assert walks[3:] == [True]
    assert db.sql("SELECT COUNT(*) FROM t WHERE id = 7").rows == [(9,)]
    assert len(db.catalog.table("t").rows) == 498


def test_keyed_writes_gather_their_rows_once(monkeypatch):
    """A keyed UPDATE and a keyed DELETE read their target rows off the
    table once: the gather that evaluates the WHERE also yields the SET
    inputs and the redo record. The UPDATE/DELETE binder is the query
    binder; the module that used to bind them is gone."""
    db = Database()
    db.configure(durability="commit")
    db.create_table("t", [("id", DataType.INT), ("v", DataType.INT)])
    db.insert("t", [(i, 0) for i in range(1_000)])
    db.create_index("t", "id")
    table = db.catalog.table("t")
    takes = []
    take = table.take
    monkeypatch.setattr(table, "take",
                        lambda positions: takes.append(list(positions))
                        or take(positions))
    assert db.sql("UPDATE t SET v = v + 1 WHERE id = 5").rows == [(1,)]
    assert len(takes) == 1
    assert db.sql("DELETE FROM t WHERE id = 6").rows == [(1,)]
    assert len(takes) == 2
    assert db.sql("SELECT v FROM t WHERE id = 5").rows == [(1,)]
    recovered, _ = recover(db.txn.wal().storage.read_all())
    assert recovered.catalog.table("t").rows == table.rows
    with pytest.raises(ImportError):
        import repro.sql.dml  # noqa: F401
