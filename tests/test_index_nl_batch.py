"""The index nested loops join probes a whole outer batch at a time.

Each outer batch's key column is read once, every distinct non-NULL key
probes the index once, and the inner columns are gathered off the
table's columnar base by position. The ledger still charges one probe
per outer row, in outer order, and output batches end where a
row-at-a-time loop would have ended them, so a ``LIMIT`` above the join
measures the same work. Rows are checked against the naive reference
interpreter (values and their Python types); every ledger component is
pinned to what the row-at-a-time implementation charged.
"""

import pytest

from repro import Database, DataType, OptimizerConfig
from repro.distributed.database import DistributedDatabase, distributed_config

from tests.reference_engine import evaluate_query_naive

INL = OptimizerConfig(forced_stored_join="inl")

JOIN = ("SELECT O.id, O.k, O.tag, I.name, I.score, I.note FROM O, I "
        "WHERE O.k = I.k")
# I.score is NULL on some rows, so the residual is NULL there, and
# O.id < I.score * 100 compares an int with a float
RESIDUAL = ("SELECT O.id, I.name, I.score FROM O, I "
            "WHERE O.k = I.k AND O.id < I.score * 100")


def _load(db):
    """An outer of 3,000 rows (three batches) whose keys repeat across
    batches and are NULL on every seventh row, and a hash-indexed inner
    of up to three rows per key with string, float and NULL columns."""
    db.create_table("O", [("id", DataType.INT), ("k", DataType.INT),
                          ("tag", DataType.STR)])
    db.create_table("I", [("k", DataType.INT), ("name", DataType.STR),
                          ("score", DataType.FLOAT), ("note", DataType.STR)])
    db.insert("O", [(i, None if i % 7 == 0 else (i * 13) % 41,
                     "t%d" % (i % 5)) for i in range(3000)])
    db.insert("I", [(k if j < 3 else None, "n%d_%d" % (k, j),
                     None if (k + j) % 4 == 0 else k * 0.75 + j,
                     None if j == 1 else "note%d" % k)
                    for k in range(45) for j in range(k % 4 + 1)])
    db.create_index("I", "k")
    return db


@pytest.fixture(scope="module")
def db():
    """The local database, with hidden inner versions: rows another
    session inserted but has not committed, and rows a committed delete
    stamped that no vacuum has removed yet."""
    db = _load(Database())
    db.sql("DELETE FROM I WHERE k = 5 OR k = 12")
    writer = db.new_session()
    writer.sql("BEGIN")
    writer.sql("INSERT INTO I VALUES (3, 'ghost', 1.5, 'x')")
    writer.sql("INSERT INTO I VALUES (8, 'ghost', NULL, NULL)")
    db.analyze()
    yield db
    writer.sql("ROLLBACK")


@pytest.fixture(scope="module")
def reference(db):
    return {sql: evaluate_query_naive(db.bind(sql))
            for sql in (JOIN, RESIDUAL)}


def _typed(rows):
    return sorted((tuple((type(v).__name__, v) for v in row)
                   for row in rows), key=repr)


def _run(db, sql, config=INL):
    assert "index-nested-loops" in db.explain(sql, config=config)
    return db.sql(sql, config=config)


def _ledger(reads, cpu, msgs=0.0, nbytes=0.0):
    return {"page_reads": reads, "page_writes": 0.0, "tuple_cpu": cpu,
            "net_msgs": msgs, "net_bytes": nbytes, "fn_invocations": 0.0}


# Ledgers charged by the row-at-a-time implementation this replaced.
PINNED = {
    "join": _ledger(6275.429906542048, 16609.0),
    "residual": _ledger(6275.429906542048, 13037.0),
    "limit5": _ledger(1185.1214953271021, 3550.0),
    "limit1500": _ledger(2344.9906542055987, 7099.0),
    "remote": _ledger(6431.904545454442, 16985.0, 5142.0, 383556.0),
}


class TestBatchedProbe:
    def test_rows_and_types_match_reference(self, db, reference):
        for sql in (JOIN, RESIDUAL):
            result = _run(db, sql)
            assert _typed(result.rows) == _typed(reference[sql])

    def test_hidden_versions_never_join(self, db, reference):
        rows = _run(db, JOIN).rows
        assert not any(row[3] == "ghost" for row in rows)
        assert not any(row[1] in (5, 12) for row in rows)
        assert len(rows) > 2 * 1024  # several output batches

    def test_ledger_pinned(self, db):
        for name, sql in (("join", JOIN), ("residual", RESIDUAL)):
            assert _run(db, sql).ledger.as_dict() == PINNED[name], name


class TestLimitAboveJoin:
    """No ORDER BY: the limit stops the join mid-stream, so the ledger
    shows how far the join had got when its batch filled."""

    @pytest.mark.parametrize("limit", [5, 1500])
    def test_rows_and_ledger(self, db, reference, limit):
        sql = JOIN + " LIMIT %d" % limit
        result = _run(db, sql)
        assert len(result.rows) == limit
        full = _run(db, JOIN).rows
        assert result.rows == full[:limit]
        assert set(result.rows) <= set(reference[JOIN])
        assert result.ledger.as_dict() == PINNED["limit%d" % limit]


class TestRemoteInner:
    """Fetch matches: the inner lives at another site, and every outer
    row with a non-NULL key pays one request/response round trip."""

    def test_rows_and_ledger(self):
        db = _load(DistributedDatabase(distributed_config(1.0, 0.001)))
        db.place_table("I", "siteB")
        db.analyze()
        config = distributed_config(1.0, 0.001, forced_stored_join="inl")
        result = _run(db, JOIN, config)
        assert _typed(result.rows) == _typed(
            evaluate_query_naive(db.bind(JOIN)))
        assert result.ledger.as_dict() == PINNED["remote"]
