"""Columnar storage and results-API tests.

Covers the dictionary encoding of string columns (NULL ordering, 3VL
comparisons, DISTINCT/GROUP BY over encoded columns), MVCC
freeze/compaction round-trips that must preserve dictionaries, the
``QueryResult.columns()`` / ``column(name)`` surface and the
typed-schema ``SchemaError`` path. Query answers are checked against
the naive interpreter in :mod:`tests.reference_engine`.
"""

import warnings

import pytest

import repro
from repro import DataType, Options, ReproError, Schema, SchemaError
from repro.errors import CatalogError
from repro.executor.vectorize import Batch
from repro.storage import columnar
from repro.storage.columnar import ColumnVector, StringDictionary

from tests.reference_engine import evaluate_query_naive


def _db(**options):
    db = repro.connect(**options)
    db.execute_script("""
        CREATE TABLE people (name TEXT, city TEXT, age INT);
        INSERT INTO people VALUES
            ('ann', 'oslo', 31), ('bob', NULL, 45),
            ('cal', 'lima', NULL), (NULL, 'oslo', 28),
            ('dee', 'lima', 31), ('ann', 'pune', 19);
    """)
    return db


def _checked(db, query):
    result = db.sql(query)
    assert result.rows == evaluate_query_naive(db.bind(query))
    return result


# --------------------------------------------- dictionary-encoded strings


class TestDictionaryColumns:
    def test_encode_round_trip_with_nulls(self):
        values = ["b", None, "a", "b", None, "c"]
        vec = ColumnVector.from_values(DataType.STR, values)
        assert isinstance(vec, ColumnVector)
        assert vec.dictionary is not None
        assert vec.tolist() == values
        # codes are first-appearance stable
        assert vec.dictionary.entries == ["b", "a", "c"]

    def test_sorted_entries_cache(self):
        dictionary = StringDictionary()
        for entry in ("pear", "apple", "fig"):
            dictionary.encode(entry)
        assert dictionary.sorted_entries() == ["apple", "fig", "pear"]
        assert dictionary.lookup("fig") == 2
        assert dictionary.lookup("kiwi") == -1

    def test_null_ordering(self):
        # NULLs sort first under the engine's total order, on the
        # encoded path as in the naive oracle
        db = _db()
        result = _checked(
            db, "SELECT name, city FROM people ORDER BY city, name")
        assert result.rows[0][1] is None

    def test_three_valued_comparisons(self):
        db = _db()
        eq = _checked(
            db, "SELECT name FROM people WHERE city = 'lima'")
        assert sorted(row[0] for row in eq.rows) == ["cal", "dee"]
        ne = _checked(
            db, "SELECT name FROM people WHERE city <> 'oslo'")
        # NULL city is UNKNOWN, never emitted — not even by <>
        assert sorted(row[0] for row in ne.rows) == ["ann", "cal", "dee"]
        lt = _checked(
            db, "SELECT name FROM people WHERE city < 'oslo'")
        assert sorted(row[0] for row in lt.rows) == ["cal", "dee"]

    def test_distinct_over_encoded_column(self):
        db = _db()
        result = _checked(db, "SELECT DISTINCT city FROM people")
        assert sorted(row[0] for row in result.rows
                      if row[0] is not None) == ["lima", "oslo", "pune"]
        assert any(row[0] is None for row in result.rows)

    def test_group_by_encoded_column(self):
        db = _db()
        result = _checked(
            db, "SELECT city, COUNT(*), MIN(name), MAX(age) FROM people"
                " GROUP BY city")
        by_city = {row[0]: row[1:] for row in result.rows}
        assert by_city["oslo"] == (2, "ann", 31)
        assert by_city["lima"] == (2, "cal", 31)
        assert by_city[None] == (1, "bob", 45)


# ------------------------------------------------- MVCC and compaction


class TestMvccCompaction:
    def test_freeze_extends_dictionary_in_place(self):
        db = _db()
        table = db.catalog.table("people")
        store = table.columnar_view()
        assert store is not None and store.num_rows == 6
        city = store.columns[1]
        assert isinstance(city, ColumnVector)
        dictionary = city.dictionary
        db.insert("people", [("eve", "oslo", 52), ("fay", "kiev", 40)])
        store2 = table.columnar_view()
        assert store2.num_rows == 8
        # compaction folded the delta tail while *reusing* the
        # dictionary object, so existing codes stayed stable
        assert store2.columns[1].dictionary is dictionary
        assert dictionary.entries[:3] == ["oslo", "lima", "pune"]
        assert store2.columns[1].tolist()[-2:] == ["oslo", "kiev"]

    def test_uncommitted_writes_are_masked_from_columnar_scans(
            self, monkeypatch):
        db = _db()
        table = db.catalog.table("people")
        assert table.columnar_view().num_rows == 6
        builds = []
        build = columnar.ColumnStore.build
        monkeypatch.setattr(
            columnar.ColumnStore, "build", staticmethod(
                lambda *args: builds.append(args) or build(*args)))
        session = db.new_session()
        session.sql("BEGIN")
        session.sql("INSERT INTO people VALUES ('gus', 'oslo', 61)")
        session.sql("DELETE FROM people WHERE name = 'bob'")

        def names(store):
            return columnar.materialize(store.columns[0])

        # the base holds all 7 physical versions; each snapshot's scan
        # masks out what it cannot see — the other session's
        # uncommitted insert for the reader, its own delete for the
        # writer — and stays columnar doing so
        reader = table.columnar_view()
        assert names(reader) == ["ann", "bob", "cal", None, "dee", "ann"]
        writer = session._run(table.columnar_view)
        assert names(writer) == ["ann", "cal", None, "dee", "ann", "gus"]
        assert table.compact().num_rows == 7
        query = "SELECT name FROM people WHERE age > 20"
        for run, expect in ((db.sql, ["ann", "bob", None, "dee"]),
                            (session.sql, ["ann", None, "dee", "gus"])):
            result = run(query)
            assert [row[0] for row in result.rows] == expect
            scan, = [span for span in result.trace.operator_spans()
                     if span.node_type == "SeqScanNode"]
            assert scan.extras["kernel_batches"] == 1
            assert scan.extras["fallback_batches"] == 0
        session.sql("COMMIT")
        session.close()
        store = table.columnar_view()
        assert store.num_rows == len(table.rows) == 6
        assert not builds  # extended and masked, never rebuilt

    def test_vacuum_rebuilds_columnar_base(self):
        db = _db()
        table = db.catalog.table("people")
        before = table.columnar_view()
        assert before is not None
        db.delete("people", "city = 'lima'")
        db.vacuum()
        store = table.columnar_view()
        assert store is not None
        assert store.num_rows == len(table.rows) == 4
        decoded = [columnar.materialize(col) for col in store.columns]
        assert list(zip(*decoded)) == table.rows

    def test_round_trip_matches_engines_after_churn(self):
        db = _db()
        db.delete("people", "name = 'bob'")
        db.insert("people", [("hal", "lima", 77)])
        db.vacuum()
        _checked(
            db, "SELECT city, COUNT(*) FROM people GROUP BY city")


# ------------------------------------------------ columnar results API


class TestColumnarResults:
    def test_columns_is_names_and_callable(self):
        db = _db()
        result = db.sql("SELECT name, age FROM people")
        assert list(result.columns) == ["name", "age"]
        view = result.columns()
        assert set(view) == {"name", "age"}
        assert view["age"].dtype == columnar.np.int64

    def test_column_zero_copy_after_vector_run(self):
        db = _db()
        result = db.sql("SELECT age FROM people WHERE age >= 28")
        assert result.column_data is not None
        vec = result.column_data[0]
        assert isinstance(vec, ColumnVector)
        values, nulls = result.column("age")
        assert values is vec.values  # zero-copy
        assert values.tolist() == [row[0] for row in result.rows]
        assert not nulls.any()

    def test_column_null_mask_and_string_decode(self):
        db = _db()
        result = db.sql("SELECT city, age FROM people")
        city, city_nulls = result.column("city")
        assert city.tolist() == [row[0] for row in result.rows]
        assert city_nulls.tolist() == [
            row[0] is None for row in result.rows]
        _age, age_nulls = result.column("age")
        assert age_nulls.sum() == 1

    def test_column_from_iterator_rows(self):
        """Without retained columns the arrays are built from the rows."""
        db = _db()
        result = db.sql("SELECT age FROM people")
        result.column_data = None
        values, nulls = result.column("age")
        assert len(values) == len(result.rows)
        assert nulls.tolist() == [row[0] is None for row in result.rows]

    def test_unknown_column_raises(self):
        db = _db()
        result = db.sql("SELECT age FROM people")
        with pytest.raises(ReproError):
            result.column("salary")


# -------------------------------------------------- typed schema errors


class TestTypedSchema:
    def test_schema_kwarg(self):
        db = repro.connect()
        db.create_table("t", schema=Schema.of(("x", DataType.INT)))
        assert db.catalog.table("t").schema.names() == ["x"]

    def test_both_or_neither_rejected(self):
        db = repro.connect()
        with pytest.raises(TypeError):
            db.create_table("t")
        with pytest.raises(TypeError):
            db.create_table("t", [("x", DataType.INT)],
                            schema=Schema.of(("x", DataType.INT)))

    def test_inferred_backfill(self):
        db = repro.connect()
        db.create_table("legacy", ["a", "b", "c"],
                        rows=[(1, "x", None), (2, None, 1.5),
                              (None, "y", 2)])
        schema = db.catalog.table("legacy").schema
        assert [col.dtype for col in schema] == [
            DataType.INT, DataType.STR, DataType.FLOAT]
        # the INT sample in the FLOAT column was widened on insert
        assert db.sql("SELECT c FROM legacy").rows[2] == (2.0,)

    def test_untyped_names_require_rows(self):
        db = repro.connect()
        with pytest.raises(SchemaError):
            db.create_table("legacy", ["a", "b"])

    def test_inference_rejects_mixed_columns(self):
        with pytest.raises(SchemaError):
            Schema.inferred(["a"], [(1,), ("x",)])
        with pytest.raises(SchemaError):
            Schema.inferred(["a"], [(object(),)])
        # all-NULL defaults to STR; bools are not ints
        schema = Schema.inferred(["a", "b"], [(None, True)])
        assert [col.dtype for col in schema] == [
            DataType.STR, DataType.BOOL]

    def test_violating_insert_raises_schema_error(self):
        db = _db()
        with pytest.raises(SchemaError) as excinfo:
            db.insert("people", [("ann", "oslo", "old")])
        assert excinfo.value.column == "age"
        assert excinfo.value.dtype == "int"
        with pytest.raises(SchemaError):
            db.sql("INSERT INTO people VALUES ('b', 'c', 'nan')")

    def test_schema_error_is_catalog_error(self):
        assert issubclass(SchemaError, CatalogError)
        assert "SchemaError" in repro.__all__


# ------------------------------------------------ no engine to choose


class TestEngineValidation:
    def test_rejects_unknown_engine_at_construction(self):
        with pytest.raises(TypeError):
            Options(engine="columnar")

    def test_configure_rejects_unknown_engine(self):
        db = repro.connect()
        with pytest.raises(TypeError):
            db.configure(engine="gpu")


# ------------------------------------------------- warning hygiene


class TestBatchDeprecation:
    def test_from_rows_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            batch = Batch.from_rows([(1,), (2,)], 1)
        assert batch.rows() == [(1,), (2,)]

    def test_vector_engine_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db = _db()
            db.sql("SELECT city, COUNT(*) FROM people GROUP BY city")
