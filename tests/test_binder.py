"""Unit tests for the SQL binder (name resolution, canonical form)."""

import sqlite3

import pytest

from repro import Database, DataType
from repro.errors import BindError, CatalogError, ParameterError
from repro.expr.nodes import ColumnRef


@pytest.fixture()
def db():
    database = Database()
    database.create_table("Emp", [("eid", DataType.INT),
                                  ("did", DataType.INT),
                                  ("sal", DataType.INT),
                                  ("age", DataType.INT)])
    database.create_table("Dept", [("did", DataType.INT),
                                   ("budget", DataType.INT)])
    database.create_view(
        "DepAvgSal",
        "SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did",
    )
    return database


class TestFromBinding:
    def test_table_gets_default_alias(self, db):
        block = db.bind("SELECT eid FROM Emp")
        assert block.relations[0].alias == "Emp"
        assert block.relations[0].kind == "stored"

    def test_view_becomes_virtual_relation(self, db):
        block = db.bind("SELECT V.did FROM DepAvgSal V")
        rel = block.relations[0]
        assert rel.kind == "view"
        assert rel.base_schema.names() == ["did", "avgsal"]

    def test_subquery_in_from(self, db):
        block = db.bind(
            "SELECT x.did FROM (SELECT did FROM Dept) x"
        )
        assert block.relations[0].kind == "view"

    def test_unknown_relation(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT a FROM Nope")

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT E.eid FROM Emp E, Dept E")


class TestColumnResolution:
    def test_unqualified_unique_column(self, db):
        block = db.bind("SELECT eid FROM Emp E")
        assert block.select_items[0].expr == ColumnRef("E.eid")

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT did FROM Emp E, Dept D")

    def test_qualified_resolves_ambiguity(self, db):
        block = db.bind("SELECT E.did FROM Emp E, Dept D "
                        "WHERE E.did = D.did")
        assert block.select_items[0].expr == ColumnRef("E.did")

    def test_unknown_column(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT bogus FROM Emp")

    def test_unknown_qualifier(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT Z.did FROM Emp E")


class TestPredicates:
    def test_where_flattened_to_conjuncts(self, db):
        block = db.bind(
            "SELECT E.eid FROM Emp E WHERE E.age < 30 AND E.sal > 10 "
            "AND E.did = 3"
        )
        assert len(block.predicates) == 3

    def test_or_stays_single_conjunct(self, db):
        block = db.bind(
            "SELECT E.eid FROM Emp E WHERE E.age < 30 OR E.sal > 10"
        )
        assert len(block.predicates) == 1

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT eid FROM Emp WHERE AVG(sal) > 10")


class TestGrouping:
    def test_group_by_canonical_form(self, db):
        block = db.bind(
            "SELECT did, AVG(sal) AS avgsal FROM Emp GROUP BY did"
        )
        assert [g.name for g in block.group_by] == ["Emp.did"]
        assert len(block.aggregates) == 1
        assert block.aggregates[0].alias == "avgsal"
        # select items reference the group-output schema
        assert block.select_items[0].expr == ColumnRef("did")
        assert block.select_items[1].expr == ColumnRef("avgsal")

    def test_output_schema(self, db):
        block = db.bind(
            "SELECT did, AVG(sal) AS avgsal FROM Emp GROUP BY did"
        )
        out = block.output_schema()
        assert out.names() == ["did", "avgsal"]
        assert out.column("avgsal").dtype == DataType.FLOAT

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT sal, AVG(age) FROM Emp GROUP BY did")

    def test_having_binds_against_group_output(self, db):
        block = db.bind(
            "SELECT did FROM Emp GROUP BY did HAVING COUNT(*) > 5"
        )
        assert block.having is not None
        assert len(block.aggregates) == 1  # the COUNT(*) from HAVING

    def test_duplicate_aggregates_deduplicated(self, db):
        block = db.bind(
            "SELECT did, AVG(sal) a1 FROM Emp GROUP BY did "
            "HAVING AVG(sal) > 10"
        )
        assert len(block.aggregates) == 1

    def test_scalar_aggregate_without_group_by(self, db):
        block = db.bind("SELECT COUNT(*) AS n FROM Emp")
        assert block.is_grouped
        assert block.group_by == []

    def test_unknown_function(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT MEDIAN(sal) FROM Emp GROUP BY did")


class TestSelectList:
    def test_star_expands_with_qualified_names(self, db):
        block = db.bind("SELECT * FROM Emp E, Dept D WHERE E.did = D.did")
        out = block.output_schema()
        assert len(out) == 6
        assert "did" in out.names() and "did_2" in out.names()

    def test_expression_needs_alias(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT sal + 1 FROM Emp")

    def test_expression_with_alias(self, db):
        block = db.bind("SELECT sal + 1 AS nextsal FROM Emp")
        assert block.output_schema().names() == ["nextsal"]


class TestOrderByLimit:
    def test_order_by_output_column(self, db):
        block = db.bind("SELECT eid, sal FROM Emp ORDER BY sal DESC")
        assert block.order_by[0][0].name == "sal"
        assert block.order_by[0][1] is False

    def test_order_by_unknown_rejected(self, db):
        with pytest.raises(BindError):
            db.bind("SELECT eid FROM Emp ORDER BY nope")

    def test_limit_captured(self, db):
        assert db.bind("SELECT eid FROM Emp LIMIT 7").limit == 7


class TestViewBinding:
    def test_view_column_aliases(self, db):
        db.create_view("V2", "SELECT did, budget FROM Dept",
                       column_aliases=["d", "b"])
        block = db.bind("SELECT x.d, x.b FROM V2 x")
        assert block.output_schema().names() == ["d", "b"]

    def test_view_of_view(self, db):
        db.create_view("Rich", "SELECT V.did FROM DepAvgSal V "
                               "WHERE V.avgsal > 50000")
        block = db.bind("SELECT R.did FROM Rich R")
        inner = block.relations[0]
        assert inner.kind == "view"
        assert inner.block.relations[0].kind == "view"

    def test_view_cycle_detected(self, db):
        # A view can't reference itself at creation (it doesn't exist yet),
        # but deep nesting is capped.
        sql = "SELECT did FROM Dept"
        name = "Deep0"
        db.create_view(name, sql)
        for i in range(1, 20):
            db.create_view("Deep%d" % i, "SELECT did FROM Deep%d" % (i - 1))
        with pytest.raises(BindError):
            db.bind("SELECT did FROM Deep19")


# --------------------------------------- one scalar conversion, one walk

def _sqlite_pair(rows):
    """A repro table ``t(g, v)`` and the same rows in sqlite3."""
    db = Database()
    db.create_table("t", [("g", DataType.INT), ("v", DataType.INT)])
    db.insert("t", rows)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (g, v)")
    oracle.executemany("INSERT INTO t VALUES (?, ?)", rows)
    return db, oracle


class TestAggregateInsideInList:
    """An aggregate is found under an IN list like under any other
    operator, in the select list and in HAVING. (A computed select item
    needs an alias in this engine, as ``SELECT v + 1 FROM t`` does.)"""

    QUERIES = [
        "SELECT SUM(v) IN (45, 1) AS hit FROM t",
        "SELECT SUM(v) NOT IN (45) AS miss FROM t",
        "SELECT g, COUNT(*) IN (4, 2) AS hit FROM t GROUP BY g",
        "SELECT g FROM t GROUP BY g HAVING COUNT(*) IN (4, 2)",
        "SELECT COUNT(*) AS n FROM t HAVING SUM(v) NOT IN (1, 2)",
        "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING NOT "
        "(MAX(v) + 1 IN (10))",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_equals_sqlite(self, query):
        db, oracle = _sqlite_pair([(i % 3, i) for i in range(10)])
        # sqlite3's 1/0 compare equal to True/False
        assert sorted(db.sql(query).rows) == sorted(
            oracle.execute(query).fetchall())

    def test_having_in_list_needs_grouped_columns(self):
        db, _ = _sqlite_pair([(1, 2)])
        for having in ("COUNT(*) = 1", "COUNT(*) IN (1)"):
            with pytest.raises(BindError, match="must appear in GROUP BY"):
                db.sql("SELECT v FROM t HAVING %s" % having)


class TestQualifierRule:
    """A qualifier names an alias case-insensitively, as a table name
    does, in a query and in UPDATE/DELETE alike."""

    @pytest.fixture()
    def tdb(self):
        db = Database()
        db.create_table("T", [("a", DataType.INT), ("b", DataType.INT)])
        db.insert("T", [(1, 10), (2, 20)])
        return db

    def test_select_and_update_agree(self, tdb):
        assert tdb.sql("SELECT t.a FROM T WHERE t.b > 10").rows == [(2,)]
        assert tdb.sql("UPDATE T SET b = t.b + 1 WHERE t.b > 10"
                       ).rows == [(1,)]
        assert tdb.sql("SELECT T.b FROM t ORDER BY b").rows == [(10,),
                                                               (21,)]
        for text in ("SELECT x.a FROM T", "UPDATE T SET b = x.b",
                     "DELETE FROM T WHERE x.a = 1"):
            with pytest.raises(BindError, match="unknown column x"):
                tdb.sql(text)

    def test_aliases_that_differ_only_in_case_are_ambiguous(self, tdb):
        assert tdb.sql("SELECT e.a FROM T e, T F WHERE e.a = F.a"
                       ).rows == [(1,), (2,)]
        with pytest.raises(BindError, match="ambiguous column e.a"):
            tdb.sql("SELECT e.a FROM T e, T E")


class TestDmlBinding:
    """UPDATE/DELETE bind through the query binder over their target
    table alone; what it cannot bind there keeps its error type."""

    @pytest.fixture()
    def tdb(self):
        db = Database()
        db.create_table("T", [("a", DataType.INT), ("b", DataType.INT)])
        db.insert("T", [(1, 10), (2, 20)])
        db.create_view("V", "SELECT a FROM T")
        return db

    @pytest.mark.parametrize("text", [
        "UPDATE T SET b = nope",
        "DELETE FROM T WHERE nope = 1",
        "UPDATE T SET b = Emp.b",
        "DELETE FROM T WHERE a IN (SELECT a FROM T)",
        "UPDATE T SET b = SUM(a)",
        "DELETE FROM T WHERE COUNT(*) > 1",
    ])
    def test_bind_errors(self, tdb, text):
        with pytest.raises(BindError):
            tdb.sql(text)

    def test_parameters_are_refused(self, tdb):
        for text in ("DELETE FROM T WHERE a = ?", "UPDATE T SET b = ?",
                     "UPDATE T SET b = 1 WHERE a IN (?, 2)"):
            with pytest.raises(ParameterError):
                tdb.sql(text)
            with pytest.raises(ParameterError):
                tdb.prepare(text)
        assert tdb.sql("SELECT a, b FROM T").rows == [(1, 10), (2, 20)]

    @pytest.mark.parametrize("text", ["UPDATE V SET a = 1",
                                      "DELETE FROM nope"])
    def test_a_target_must_be_a_table(self, tdb, text):
        with pytest.raises(CatalogError, match="no table named"):
            tdb.sql(text)
