"""Unit tests for algebra.block and algebra.predicates."""

import pytest

from repro import Database, DataType
from repro.algebra.predicates import (
    alias_of,
    aliases_in,
    connected_aliases,
    equijoin_pairs,
    local_predicates,
)
from repro.errors import BindError
from repro.expr.nodes import ColumnRef, Comparison, Literal


@pytest.fixture()
def db():
    database = Database()
    database.create_table("A", [("x", DataType.INT), ("y", DataType.INT)])
    database.create_table("B", [("x", DataType.INT), ("z", DataType.INT)])
    database.create_table("C", [("z", DataType.INT), ("w", DataType.INT)])
    return database


def pred(text_left, op, text_right):
    right = (Literal(text_right) if isinstance(text_right, int)
             else ColumnRef(text_right))
    return Comparison(op, ColumnRef(text_left), right)


class TestPredicateClassification:
    def test_alias_of(self):
        assert alias_of("E.did") == "E"
        assert alias_of("plain") == "plain"

    def test_aliases_in(self):
        p = pred("A.x", "=", "B.x")
        assert aliases_in(p) == frozenset({"A", "B"})

    def test_local_predicates(self):
        preds = [pred("A.x", ">", 1), pred("A.x", "=", "B.x")]
        assert local_predicates(preds, "A") == [preds[0]]
        assert local_predicates(preds, "B") == []

    def test_equijoin_pairs_orients_left(self):
        preds = [Comparison("=", ColumnRef("B.x"), ColumnRef("A.x"))]
        pairs = equijoin_pairs(preds, {"A"}, {"B"})
        assert [(l.name, r.name) for l, r in pairs] == [("A.x", "B.x")]

    def test_equijoin_ignores_non_equi(self):
        preds = [pred("A.x", "<", "B.x")]
        assert equijoin_pairs(preds, {"A"}, {"B"}) == []

    def test_connected_aliases_chain(self):
        preds = [pred("A.x", "=", "B.x"), pred("B.z", "=", "C.z")]
        assert connected_aliases(preds, "A", {"A", "B", "C"}) == {
            "A", "B", "C",
        }

    def test_connected_aliases_island(self):
        preds = [pred("A.x", "=", "B.x")]
        assert connected_aliases(preds, "C", {"A", "B", "C"}) == {"C"}


class TestQueryBlock:
    def test_combined_schema_order(self, db):
        block = db.bind("SELECT A.x FROM A, B WHERE A.x = B.x")
        names = block.combined_schema().names()
        assert names == ["A.x", "A.y", "B.x", "B.z"]

    def test_validate_accepts_bound_block(self, db):
        block = db.bind("SELECT A.x FROM A, B WHERE A.x = B.x")
        block.validate()  # must not raise

    def test_validate_rejects_unknown_predicate_column(self, db):
        block = db.bind("SELECT A.x FROM A")
        block.predicates.append(pred("Q.q", "=", 1))
        with pytest.raises(Exception):
            block.validate()

    def test_display_sql_roundtrips_through_parser(self, db):
        block = db.bind(
            "SELECT A.x AS x FROM A, B WHERE A.x = B.x AND A.y > 3"
        )
        text = block.display_sql()
        reparsed = db.bind(text)
        assert reparsed.output_schema().names() == ["x"]
        assert len(reparsed.predicates) == 2

    def test_display_sql_grouped(self, db):
        block = db.bind(
            "SELECT x, COUNT(*) AS n FROM A GROUP BY x HAVING COUNT(*) > 1"
        )
        text = block.display_sql()
        assert "GROUP BY" in text and "HAVING" in text
        reparsed = db.bind(text)
        assert reparsed.output_schema().names() == ["n"] or \
            reparsed.output_schema().names() == ["x", "n"]

    def test_group_output_schema_requires_grouping(self, db):
        block = db.bind("SELECT A.x FROM A")
        with pytest.raises(BindError):
            block.group_output_schema()

    def test_relation_lookup(self, db):
        block = db.bind("SELECT A.x FROM A, B WHERE A.x = B.x")
        assert block.relation("B").alias == "B"
        with pytest.raises(BindError):
            block.relation("Z")
