"""A cached plan and a memoised class are reused exactly while what they
read is unchanged.

The plan cache and the restriction memo tag every entry with
``Catalog.inputs`` of the relations it read: what each name resolves
to, a table's row count under the reader's snapshot, its page count,
cluster column, indexes, statistics object and effective site. The
planner is a function of (block, config, those inputs), so the contract
tested here is the one a user sees: whatever a warm cache serves equals
what a cold ``Planner`` plans on the reader's snapshot (``explain``,
``est_cost`` and ``est_components``), and the rows equal the naive
reference interpreter's — while a write the entry never read keeps it.
"""

import random
from collections import Counter

import pytest

from repro import Database, DataType
from repro.distributed import DistributedDatabase
from repro.optimizer.planner import Planner
from repro.plancache import cache_key
from repro.workloads import MOTIVATING_QUERY, EmpDeptConfig, build_empdept

from tests.reference_engine import evaluate_query_naive
from tests.test_restriction_memo import TemplateCheckingPlanner, no_deferred

JOIN = "SELECT T.b, U.c FROM T, U WHERE T.a = U.a"
VIEW_DID = ("SELECT D.did, D.budget, V.avgsal FROM Dept D, DepAvgSal V "
            "WHERE D.did = V.did AND D.did = %d")
TINY = EmpDeptConfig(num_departments=8, employees_per_department=30,
                     big_fraction=0.4, seed=5)


def tu_db() -> Database:
    """``T`` (5 rows) and ``U`` (2,000 rows), indexed on ``a``."""
    db = Database()
    db.sql("CREATE TABLE T (a INT, b INT)")
    db.sql("CREATE TABLE U (a INT, c INT)")
    db.insert("T", [(i, i) for i in range(5)])
    db.insert("U", [(i % 500, i) for i in range(2000)])
    db.create_index("T", "a")
    db.create_index("U", "a")
    db.analyze()
    return db


def t_rows(count: int) -> str:
    return "INSERT INTO T VALUES " + ", ".join(
        "(%d, %d)" % (5 + i, i) for i in range(count))


def as_reader(db, session, fn):
    """``fn()`` as ``session``'s next statement would see the database
    (the default session when ``session`` is None)."""
    def run():
        with db.txn.statement_snapshot():
            return fn()
    if session is None:
        with db._lock:
            return run()
    return session._run(run)


def cold_plan(db, sql, session=None):
    return as_reader(db, session, lambda: Planner(
        db.catalog, db.config).plan(db.bind(sql)))


def assert_same_plan(plan, expected, sql=""):
    assert plan.explain() == expected.explain(), sql
    assert plan.est_cost == expected.est_cost, sql
    assert plan.est_components == expected.est_components, sql


def normalized(rows):
    return Counter(tuple(round(v, 6) if isinstance(v, float) else v
                         for v in row) for row in rows)


class TestSnapshots:
    """A plan's row counts are its reader's snapshot's."""

    def test_commit_invalidates_a_plan_whose_snapshot_moved(self):
        db = tu_db()
        a, b = db.new_session("a"), db.new_session("b")
        a.sql("BEGIN")
        a.sql(t_rows(2995))
        for _ in range(3):
            served = b.sql(JOIN)
        assert served.cached_plan
        a.sql("COMMIT")
        served = b.sql(JOIN)
        assert_same_plan(served.plan, cold_plan(db, JOIN, b))
        assert not served.cached_plan

    def test_a_plan_from_an_open_transaction_is_not_served_outside(self):
        db = tu_db()
        a, b = db.new_session("a"), db.new_session("b")
        a.sql("BEGIN")
        a.sql(t_rows(2995))
        for _ in range(2):  # the second miss stores A's plan
            inside = a.sql(JOIN)
        served = b.sql(JOIN)
        assert_same_plan(served.plan, cold_plan(db, JOIN, b))
        assert_same_plan(inside.plan, cold_plan(db, JOIN, a))
        assert served.plan.est_cost != inside.plan.est_cost
        assert sorted(served.rows) != sorted(inside.rows)
        a.sql("ROLLBACK")


class TestPreparedPlan:
    def test_plan_is_only_shown_while_current(self):
        db = tu_db()
        text = "SELECT U.a FROM U WHERE U.c = 3"
        stmt = db.prepare(text)
        assert "IndexScan" not in stmt.plan.explain()
        db.create_index("U", "c")
        counters = db.cache_stats()
        assert stmt.plan is None
        assert db.cache_stats() == counters  # a look moves nothing
        assert "IndexScan" in db.explain(text)
        result = stmt.execute()
        assert not result.cached_plan
        assert stmt.plan is result.plan
        assert "IndexScan" in stmt.plan.explain()


class TestKeptEntries:
    """Writes the entry never read, or that move none of its inputs,
    keep the plan and the classes."""

    @staticmethod
    def warm(db, sql):
        for _ in range(3):
            result = db.sql(sql)
        assert result.cached_plan
        _plan, planner = db.plan(sql)
        assert planner.metrics.restriction_memo_misses == 0
        assert planner.metrics.restriction_memo_hits > 0

    @staticmethod
    def assert_kept(db, sql):
        result = db.sql(sql)
        assert result.cached_plan
        assert_same_plan(result.plan, cold_plan(db, sql), sql)
        plan, planner = db.plan(sql)
        assert planner.metrics.restriction_memo_misses == 0
        assert planner.metrics.restriction_memo_hits > 0
        assert_same_plan(plan, cold_plan(db, sql), sql)

    def test_budget_update_keeps_the_view_lookup(self):
        db = build_empdept(Database(), EmpDeptConfig(
            num_departments=40, employees_per_department=15, seed=11))
        sql = VIEW_DID % 7
        self.warm(db, sql)
        pages = db.catalog.table("Dept").num_pages
        db.sql("UPDATE Dept SET budget = budget + 1")
        assert db.catalog.table("Dept").num_pages == pages
        self.assert_kept(db, sql)

    def test_insert_elsewhere_keeps_the_view_lookup(self):
        db = build_empdept(Database(), EmpDeptConfig(
            num_departments=40, employees_per_department=15, seed=11))
        db.sql("CREATE TABLE Other (x INT)")
        sql = VIEW_DID % 7
        self.warm(db, sql)
        db.sql("INSERT INTO Other VALUES (1), (2)")
        self.assert_kept(db, sql)


class TestInputs:
    def test_tag_is_sorted_by_name_and_index_column(self):
        db = tu_db()
        db.create_index("U", "c", "sorted")
        sql = "SELECT U.c, T.b FROM U, T WHERE T.a = U.a"
        db.prepare(sql)
        entry = db.plan_cache.peek(cache_key(sql, db.config))
        assert entry.names == ("t", "u")
        t_inputs, u_inputs = entry.inputs
        assert t_inputs[4] == (("a", "hash"),)
        assert u_inputs[4] == (("a", "hash"), ("c", "sorted"))

    def test_clustering_a_table_invalidates_its_plans(self):
        db = tu_db()
        sql = "SELECT U.a, U.c FROM U ORDER BY U.a"
        for _ in range(3):
            result = db.sql(sql)
        assert result.cached_plan
        db.catalog.table("U").cluster_by("a")
        result = db.sql(sql)
        assert not result.cached_plan
        assert_same_plan(result.plan, cold_plan(db, sql))

    def test_a_name_resolves_table_view_function_or_nothing(self):
        db = tu_db()
        db.functions.register_function(
            "f", [("k", DataType.INT)], [("r", DataType.INT)],
            lambda args: [(args[0],)])
        (factory,) = db.catalog.inputs(("f",))
        assert callable(factory)
        db.sql("CREATE TABLE f (k INT, r INT)")
        (table_inputs,) = db.catalog.inputs(("f",))
        assert table_inputs[0] is db.catalog.table("f")
        db.sql("DROP TABLE f")
        assert db.catalog.inputs(("f",)) == (factory,)
        assert db.catalog.inputs(("nothing",)) == (None,)


class TestInterleavedWrites:
    """Seeded two-session interleavings of every kind of change with
    queries in between: each plan-cache hit and each memo-served
    template equals a cold planner on the reader's snapshot, and every
    row set equals the reference interpreter's."""

    QUERIES = [
        MOTIVATING_QUERY,
        VIEW_DID % 2,
        VIEW_DID % 5,
        "SELECT E.eid, E.sal FROM Emp E WHERE E.did = 3",
        "SELECT E.eid, D.budget FROM Emp E, Dept D "
        "WHERE E.did = D.did AND D.budget > 100000",
        "SELECT D.did, Y.avgsal FROM Dept D, Young Y WHERE D.did = Y.did",
        "SELECT X.k, D.budget FROM X, Dept D WHERE X.k = D.did",
        "SELECT D.did, F.extra FROM Dept D, bonus F WHERE D.did = F.did",
    ]
    YOUNG = ("SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E "
             "WHERE E.age < %d GROUP BY E.did")

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_equals_cold_and_rows_equal_the_reference(self, seed):
        rng = random.Random(3300 + seed)
        db = build_empdept(DistributedDatabase(), TINY)
        db.place_table("Dept", "east")
        db.create_view("Young", self.YOUNG % 30)
        db.sql("CREATE TABLE X (k INT, v INT)")
        db.sql("INSERT INTO X VALUES (1, 1), (2, 2), (3, 3)")
        main, other = db.new_session("main"), db.new_session("other")
        state = {"offset": 0, "eid": 1000, "x": 0, "hits": 0,
                 "resolved": 0}

        def register_bonus():
            state["offset"] += 1
            offset = state["offset"]
            db.functions.register_function(
                "bonus", [("did", DataType.INT)],
                [("extra", DataType.INT)],
                lambda args: [(args[0] * 1000 + offset,)])

        register_bonus()

        def emp_rows(count):
            rows = []
            for _ in range(count):
                state["eid"] += 1
                rows.append("(%d, %d, %d, %d)" % (
                    state["eid"], rng.randint(1, 8),
                    rng.randint(30_000, 150_000), rng.randint(21, 64)))
            return "INSERT INTO Emp VALUES " + ", ".join(rows)

        def expected_rows(session, sql):
            def naive():
                block = db.bind(sql)
                if any(rel.kind == "function" for rel in block.relations):
                    offset = state["offset"]
                    budgets = db.catalog.table("Dept").rows
                    return [(did, did * 1000 + offset)
                            for did, _budget in budgets]
                return evaluate_query_naive(block)
            return as_reader(db, session, naive)

        def query(session=None):
            session = session or rng.choice([main, other])
            sql = rng.choice(self.QUERIES)
            result = session.sql(sql)
            if result.cached_plan:
                state["hits"] += 1
                assert_same_plan(result.plan, cold_plan(db, sql, session),
                                 sql)
            assert normalized(result.rows) == normalized(
                expected_rows(session, sql)), sql
            planner = TemplateCheckingPlanner(
                db.catalog, db.config, memo=db.restriction_memo)
            warm = as_reader(db, session,
                             lambda: planner.plan(db.bind(sql)))
            no_deferred(warm)
            assert_same_plan(warm, cold_plan(db, sql, session), sql)
            state["resolved"] += planner.resolved

        def open_txn(session):
            return session.in_transaction

        def do_insert():
            main.sql(emp_rows(rng.randint(1, 12)))

        def do_update():
            main.sql("UPDATE Dept SET budget = budget + 1")

        def do_delete():
            low = rng.randint(1, 60)
            main.sql("DELETE FROM Emp WHERE eid >= %d AND eid < %d"
                     % (low, low + rng.randint(1, 6)))

        def do_rollback():
            main.sql("BEGIN")
            main.sql(emp_rows(rng.randint(1, 8)))
            if rng.random() < 0.5:
                main.sql("SAVEPOINT s")
                main.sql("UPDATE Dept SET budget = budget + 7")
                query(main)
                main.sql("ROLLBACK TO SAVEPOINT s")
                query(main)
                main.sql("COMMIT")
            else:
                main.sql("CREATE INDEX ON Emp (eid) sorted")
                query(main)
                main.sql("ROLLBACK")

        def do_analyze():
            db.analyze("Emp" if rng.random() < 0.5 else None)

        def do_index():
            table = rng.choice(["Emp", "Dept"])
            column = rng.choice(["age", "sal"] if table == "Emp"
                                else ["budget"])
            if db.catalog.table(table).index_on(column) is None:
                main.sql("CREATE INDEX ON %s (%s)" % (table, column))

        def do_recreate():
            main.sql("DROP TABLE X")
            state["x"] += 1
            main.sql("CREATE TABLE X (k INT, v INT)")
            main.sql("INSERT INTO X VALUES " + ", ".join(
                "(%d, %d)" % (k, state["x"])
                for k in range(1, rng.randint(2, 9))))

        def do_view():
            db.drop_view("Young")
            db.create_view("Young", self.YOUNG % rng.randint(25, 40))

        def do_udf():
            if db.catalog.has_table("bonus"):
                main.sql("DROP TABLE bonus")
            elif rng.random() < 0.5:
                register_bonus()
            else:  # a table shadows the function
                main.sql("CREATE TABLE bonus (did INT, extra INT)")
                main.sql("INSERT INTO bonus VALUES (1, 7), (3, 9)")

        def do_site():
            if "east" in db.down_sites:
                db.mark_site_up("east")
            else:
                db.mark_site_down("east")

        def do_vacuum():
            if not open_txn(other):
                db.vacuum()

        def do_other():
            if open_txn(other):
                other.sql(rng.choice(["COMMIT", "ROLLBACK"]))
            else:
                other.sql("BEGIN")
                other.sql(emp_rows(rng.randint(20, 60)))

        actions = [do_insert, do_update, do_delete, do_rollback,
                   do_analyze, do_index, do_recreate, do_view, do_udf,
                   do_site, do_vacuum, do_other]
        for action in rng.sample(actions * 3, 3 * len(actions)):
            action()
            for _ in range(2):
                query()
        assert state["hits"] > 0
        memo = db.restriction_memo.stats()
        assert memo["hits"] > 0 and memo["misses"] > 0
