"""Columnar storage and results-API tests.

Covers the dictionary encoding of string columns (NULL ordering, 3VL
comparisons, DISTINCT/GROUP BY over encoded columns), MVCC
freeze/compaction round-trips that must preserve dictionaries, the
``QueryResult.columns()`` / ``column(name)`` surface and the
typed-schema ``SchemaError`` path. Query answers are checked against
the naive interpreter in :mod:`tests.reference_engine`.
"""

import gc
import random
import sqlite3
import tracemalloc
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

    def test_all_null_column_has_an_empty_dictionary(self):
        vec = ColumnVector.from_values(DataType.STR, [None, None])
        assert vec.dictionary is not None and not vec.dictionary.entries
        assert vec.tolist() == [None, None]
        db = repro.connect()
        db.execute_script("CREATE TABLE t (s TEXT, v INT);"
                          "INSERT INTO t VALUES (NULL, 1), (NULL, 2);")
        assert _checked(db, "SELECT * FROM t").rows == [(None, 1),
                                                        (None, 2)]

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


class TestOneCopy:
    def test_a_loaded_table_keeps_one_copy_of_its_rows(self):
        """The columnar base is the table: once loaded, analyzed and
        scanned, a 30 000-row table retains little beyond its base's
        arrays (the row tuples it was loaded from are not kept), and
        ``rows`` built on demand still equals a sqlite3 copy."""
        rng = random.Random(11)
        rows = [(i, rng.randrange(50), rng.randrange(10 ** 6) / 8,
                 "s%03d" % rng.randrange(300), rng.random() < 0.5)
                for i in range(30_000)]
        rows[17] = (17, None, None, None, None)
        schema = Schema.of(("id", DataType.INT), ("grp", DataType.INT),
                           ("amount", DataType.FLOAT),
                           ("tag", DataType.STR), ("flag", DataType.BOOL))
        # a full collection also empties the interpreter's free lists,
        # which would otherwise count freed row tuples as retained
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            db = repro.connect()
            db.create_table("sales", schema=schema)
            db.insert("sales", rows)
            db.analyze("sales")
            assert db.sql("SELECT grp, COUNT(*) FROM sales GROUP BY grp"
                          ).rows
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        table = db.catalog.table("sales")
        base = table.compact()
        nbytes = sum(col.values.nbytes
                     + (0 if col.mask is None else col.mask.nbytes)
                     for col in base.columns)
        assert retained <= 1.15 * nbytes, (retained, nbytes)
        oracle = sqlite3.connect(":memory:")
        oracle.execute("CREATE TABLE sales (id, grp, amount, tag, flag)")
        oracle.executemany("INSERT INTO sales VALUES (?, ?, ?, ?, ?)",
                           rows)
        copy = [(i, grp, amount, tag, None if flag is None else
                 bool(flag)) for i, grp, amount, tag, flag in
                oracle.execute("SELECT * FROM sales ORDER BY rowid")]
        assert table.rows == copy

    def test_a_gather_reads_tail_rows_off_their_tuples(self):
        """Positions in the tail are gathered without folding it in,
        interleaved with base positions in the order asked, strings
        re-encoded into the base's dictionary and an int beyond 64 bits
        kept exact (that column becomes a list)."""
        db = repro.connect()
        db.create_table("t", [("id", DataType.INT), ("name", DataType.STR),
                              ("n", DataType.INT)])
        table = db.catalog.table("t")
        db.insert("t", [(0, "fresh", 1), (1, None, 2)])
        assert columnar.materialize(table.take([1, 0])[1]) == [None,
                                                               "fresh"]
        assert table._store is None  # no base yet: still nothing folded
        db.insert("t", [(i, None if i % 4 == 0 else "n%d" % (i % 3), i)
                        for i in range(2, 10)])
        assert len(table.compact().columns[0]) == 10
        db.insert("t", [(10, "fresh", 2 ** 70), (11, None, 5),
                        (12, "n1", 6)])
        positions = [11, 3, 10, 0, 3, 12, 4]
        columns = table.take(positions)
        assert table._base == 10 and len(table._rows) == 3
        assert list(zip(*map(columnar.materialize, columns))) == [
            table.row_at(p) for p in positions]
        assert columns[1].dictionary is table.compact().columns[1].dictionary
        assert isinstance(columns[2], list)

    def test_rewriting_a_fresh_row_folds_nothing(self):
        """A row written since the last fold is read off the tail by
        the next UPDATE and index scan: the base is never copied."""
        db = repro.connect()
        db.create_table("t", [("id", DataType.INT), ("v", DataType.INT)])
        db.insert("t", [(i, 0) for i in range(5000)])
        db.create_index("t", "id")
        db.analyze("t")
        table = db.catalog.table("t")
        base = table.compact()
        for _ in range(5):
            assert db.sql("UPDATE t SET v = v + 1 WHERE id = 7").rows \
                == [(1,)]
        assert db.sql("SELECT v FROM t WHERE id = 7").rows == [(5,)]
        # no index answers this WHERE: one gather of base and tail rows
        assert db.sql("UPDATE t SET v = v + 1 WHERE v >= 5").rows == [(1,)]
        assert db.sql("SELECT v FROM t WHERE id = 7").rows == [(6,)]
        assert table._store is base and len(table._rows) == 6


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

    def test_untyped_names_require_rows(self):
        """A bare column name has no dtype, with or without rows."""
        db = repro.connect()
        with pytest.raises(SchemaError):
            db.create_table("legacy", ["a", "b"])
        with pytest.raises(SchemaError):
            db.create_table("legacy", ["a", "b"],
                            rows=[(1, "x"), (2, None)])
        with pytest.raises(SchemaError):
            db.create_table("legacy", schema=["a", ("b", DataType.INT)])
        assert not db.catalog.has_table("legacy")

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
