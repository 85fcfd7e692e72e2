"""Columnar storage and the columnar results API.

A table is stored as typed numpy columns; the executor runs filters,
joins, and aggregations as numpy kernels over them and hands the output
columns to the result — so analytics code can go straight from SQL to
arrays without re-transposing rows. This example declares typed
schemas, runs an aggregation, and reads the result column-wise.

Run:  python examples/columnar_results.py
"""

import repro
from repro import DataType, Schema, SchemaError

db = repro.connect()

# -- typed schema declaration: SQL dtypes, Schema.of, or pairs -------

db.execute_script("""
    CREATE TABLE Trades (sym TEXT, qty INT, px FLOAT);
    INSERT INTO Trades VALUES
        ('AAA', 100, 10.5), ('BBB', 250, 4.0), ('AAA', 50, 10.75),
        ('CCC', 75, NULL), ('BBB', 300, 4.1), ('AAA', 25, 10.6);
""")

db.create_table("Desks", schema=Schema.of(
    ("sym", DataType.STR), ("desk", DataType.STR)))
db.insert("Desks", [("AAA", "equities"), ("BBB", "rates"),
                    ("CCC", "rates")])

# (name, DataType) pairs + rows inserted at creation
db.create_table("Limits",
                [("desk", DataType.STR), ("max_qty", DataType.INT)],
                rows=[("equities", 500), ("rates", 800)])
print("declared:", db.catalog.table("Limits").schema)

try:
    db.insert("Trades", [("DDD", "lots", 1.0)])
except SchemaError as err:
    print("rejected: %s (column=%s, dtype=%s)"
          % (err, err.column, err.dtype))

# -- a join + aggregation over the columnar base -----------------------

QUERY = """
    SELECT D.desk, COUNT(*) AS fills, SUM(T.qty) AS volume
    FROM Trades T, Desks D
    WHERE T.sym = D.sym
    GROUP BY D.desk
"""
vec = db.sql(QUERY)
assert sorted(vec.rows) == [("equities", 3, 175), ("rates", 3, 625)]

# -- columnar access: result.columns stays the name list, and is
#    callable for the {name: array} view; column() adds the NULL mask --

print("columns:", list(vec.columns))
arrays = vec.columns()
print("volume array:", arrays["volume"], arrays["volume"].dtype)

values, nulls = vec.column("desk")
print("desks:", values.tolist(), "nulls:", nulls.tolist())

px, px_nulls = db.sql("SELECT px FROM Trades").column("px")
print("px mean over non-NULL fills: %.3f" % px[~px_nulls].mean())
