"""A WHERE conjunct that references no column still filters.

Such a conjunct (``1 = 0``, ``NULL = NULL``, ``? = 1``) joins no relation
subset of the join enumeration, so the planner applies it once per
block: above the join result and below any grouping. Every answer here
is checked against stdlib ``sqlite3`` or the reference interpreter.
"""

import sqlite3

import pytest

from repro import Database, DataType
from repro.optimizer.planner import Planner
from repro.rewrite.magic import magic_rewrite
from repro.workloads import MOTIVATING_QUERY

from tests.reference_engine import evaluate_query_naive

T_ROWS = [(1, "x"), (2, "y"), (3, None), (2, "z")]
U_ROWS = [(1, 10), (2, 20), (4, 40)]


@pytest.fixture(scope="module")
def dbs():
    db = Database()
    lite = sqlite3.connect(":memory:")
    for name, columns, rows in (
            ("t", [("a", DataType.INT), ("b", DataType.STR)], T_ROWS),
            ("u", [("a", DataType.INT), ("c", DataType.INT)], U_ROWS)):
        db.create_table(name, columns)
        db.insert(name, rows)
        lite.execute("CREATE TABLE %s (%s)" % (
            name, ", ".join(col for col, _ in columns)))
        lite.executemany("INSERT INTO %s VALUES (?, ?)" % name, rows)
    db.create_index("u", "a")
    for body in ("SELECT a, b FROM t WHERE 2 < 1",
                 "SELECT a, b FROM t WHERE 1 < 2"):
        name = "v_false" if "2 < 1" in body else "v_true"
        db.create_view(name, body)
        lite.execute("CREATE VIEW %s AS %s" % (name, body))
    db.analyze()
    return db, lite


QUERIES = [
    "SELECT t.a, t.b FROM t WHERE 1 = 0",
    "SELECT t.a, t.b FROM t WHERE 1 = 1",
    "SELECT t.a, t.b FROM t WHERE NULL = NULL",
    "SELECT t.a, t.b FROM t WHERE t.a > 1 AND 1 = 0",
    "SELECT t.a, u.c FROM t, u WHERE t.a = u.a AND 1 = 0",
    "SELECT t.a, u.c FROM t, u WHERE t.a = u.a AND 0 = 0",
    "SELECT t.a, COUNT(*) AS n FROM t WHERE 1 = 0 GROUP BY t.a",
    "SELECT COUNT(*) AS n FROM t WHERE 1 = 0",
    "SELECT v.a, v.b FROM v_false v",
    "SELECT v.a, v.b FROM v_true v",
    "SELECT t.a, v.b FROM t, v_false v WHERE t.a = v.a",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_matches_sqlite(dbs, sql):
    db, lite = dbs
    assert sorted(db.sql(sql).rows, key=repr) == \
        sorted(lite.execute(sql).fetchall(), key=repr)


@pytest.mark.parametrize("sql", QUERIES[:6])
def test_matches_reference(dbs, sql):
    db, _lite = dbs
    assert sorted(db.sql(sql).rows, key=repr) == \
        sorted(evaluate_query_naive(db.bind(sql)), key=repr)


@pytest.mark.parametrize("value", [0, 1, None])
def test_prepared_parameter(dbs, value):
    db, lite = dbs
    sql = "SELECT t.a, t.b FROM t WHERE ? = 1"
    assert sorted(db.prepare(sql).execute((value,)).rows, key=repr) == \
        sorted(lite.execute(sql, (value,)).fetchall(), key=repr)


def test_applied_once_above_the_join(dbs):
    db, _lite = dbs
    plan, _planner = db.plan(
        "SELECT t.a, u.c FROM t, u WHERE t.a = u.a AND 1 = 0")
    text = plan.explain()
    assert text.count("Filter(1 = 0)") == 1
    lines = text.splitlines()
    filter_at = next(i for i, line in enumerate(lines)
                     if "Filter(1 = 0)" in line)
    assert "Join" in lines[filter_at + 1]
    # estimated through the selectivity of the conjunct
    assert plan.est_rows < plan.children()[0].children()[0].est_rows


def test_magic_rewrite_keeps_the_conjunct(empdept_db):
    """The Figure-2 rewriting leaves a column-free conjunct out of the
    production set's block and in the final block, which applies it."""
    block = empdept_db.bind(MOTIVATING_QUERY + " AND 1 = 0")
    rewriting = magic_rewrite(block, "V")
    plan = Planner(empdept_db.catalog).plan(rewriting.final_block)
    assert empdept_db.run_plan(plan).rows == []
    assert evaluate_query_naive(block) == []
