"""AggregateOp differential: columnar batch folding vs the per-row path.

The same rows reach an :class:`AggregateOp` either as columnar batches
(folded into numpy partials, merged into the group accumulators once)
or as row-backed batches (folded one row at a time). Both must give the
same rows in the same group order, the same ledger, and the same
working-memory peak — at every batch size, for every key shape, and
when a columnar run falls back to the row path part-way through.
"""

import random

import pytest

from repro.executor.operators import AggregateOp, Operator
from repro.executor.runtime import RuntimeContext
from repro.executor.vectorize import batches_from_list, batches_from_store
from repro.expr.aggregates import AggregateSpec
from repro.expr.nodes import ColumnRef
from repro.storage.columnar import INT64_SAFE, ColumnStore
from repro.storage.schema import DataType, Schema

SCHEMA = Schema.of(
    ("s", DataType.STR), ("i", DataType.INT), ("b", DataType.BOOL),
    ("wide", DataType.INT), ("v", DataType.INT), ("w", DataType.STR),
)

AGGREGATES = [
    ("count", None), ("count", "v"), ("sum", "v"), ("avg", "v"),
    ("min", "v"), ("max", "v"), ("min", "w"), ("max", "w"),
    ("sum", "b"), ("min", "b"), ("max", "b"),
]

KEY_SHAPES = {
    "dictionary_strings": ["s"],
    "nullable_ints": ["i"],
    "bools": ["b"],
    "multi_column": ["s", "i", "b"],
    "wide_int_domain": ["wide"],
    "wide_multi_column": ["wide", "i"],
    "scalar": [],
}


def sample_rows(n=2100, seed=7):
    rng = random.Random(seed)

    def maybe(value, null_share=0.1):
        return None if rng.random() < null_share else value

    return [(
        maybe(rng.choice(["ant", "bee", "cat", "dog"])),
        maybe(rng.randint(-3, 12)),
        maybe(rng.random() < 0.5),
        rng.randint(0, 10 ** 9),  # ~n groups: np.unique, memory chunks
        maybe(rng.randint(-50, 50), 0.2),
        maybe(rng.choice(["kiwi", "fig", "plum", "date", "lime"]), 0.2),
    ) for _ in range(n)]


class BatchSource(Operator):
    """``rows`` in batches of ``batch_rows``: columnar slices of one
    column store, except the batches ``row_backed(index)`` picks, which
    arrive as row tuples (the aggregate can only fold those per row).
    Charges one CPU step per row whichever form a batch takes."""

    def __init__(self, ctx, schema, rows, batch_rows, row_backed):
        super().__init__(ctx, schema)
        self.rows = rows
        self.batch_rows = batch_rows
        self.row_backed = row_backed

    def batches(self):
        columnar = batches_from_store(
            ColumnStore.build(self.schema, self.rows), self.batch_rows)
        by_rows = batches_from_list(self.rows, len(self.schema),
                                    self.batch_rows)
        for index, (col_batch, row_batch) in enumerate(
                zip(columnar, by_rows)):
            self.ctx.charge_cpu(col_batch.n)
            yield row_batch if self.row_backed(index) else col_batch


def aggregate(schema, rows, keys, aggregates, batch_rows, row_backed):
    """(output rows, ledger, memory peak, memory still held)."""
    ctx = RuntimeContext(memory_pages=8)
    specs = [
        (AggregateSpec(fname, None if column is None else ColumnRef(column),
                       "a%d" % j),
         None if column is None else ColumnRef(column).resolve(schema))
        for j, (fname, column) in enumerate(aggregates)
    ]
    out_schema = Schema.of(
        *[(key, schema.column(key).dtype) for key in keys],
        *[("a%d" % j, DataType.INT) for j in range(len(aggregates))])
    op = AggregateOp(
        ctx, BatchSource(ctx, schema, rows, batch_rows, row_backed),
        [schema.index_of(key) for key in keys], specs, out_schema)
    out = op.to_list()
    return out, ctx.ledger.as_dict(), ctx.mem_peak_bytes, ctx.mem_held_bytes


def per_row(index):
    return True


def columnar_only(index):
    return False


def falls_back_midway(index):
    return index % 5 == 2


@pytest.mark.parametrize("mode", [columnar_only, falls_back_midway],
                         ids=["columnar", "falls_back_midway"])
@pytest.mark.parametrize("batch_rows", [1, 7, 1024])
@pytest.mark.parametrize("shape", sorted(KEY_SHAPES))
def test_folding_matches_per_row_path(shape, batch_rows, mode):
    rows = sample_rows(n=420 if batch_rows == 1 else 2100)
    keys = KEY_SHAPES[shape]
    folded = aggregate(SCHEMA, rows, keys, AGGREGATES, batch_rows, mode)
    expected = aggregate(SCHEMA, rows, keys, AGGREGATES, batch_rows,
                         per_row)
    assert folded[0] == expected[0]  # rows and group order
    assert folded[1:] == expected[1:]  # ledger, memory peak, nothing held
    assert folded[3] == 0


def test_wide_domain_registers_memory_chunks():
    """Enough groups to cross a memory chunk: both paths acquire the
    same chunks at the same point."""
    _, _, peak, held = aggregate(SCHEMA, sample_rows(), ["wide"],
                                 AGGREGATES[:1], 1024, columnar_only)
    assert peak > 0 and held == 0


def test_string_min_max_across_batches():
    rows = [("k", 0, True, 0, 0, word) for word in
            ["pear", "apple", "zucchini", None, "fig", "banana"]]
    out, *_ = aggregate(SCHEMA, rows, ["s"],
                        [("min", "w"), ("max", "w"), ("count", "w")],
                        2, columnar_only)
    assert out == [("k", "apple", "zucchini", 5)]


class TestIntSumNearInt64Safe:
    """Exact Python ints past int64: a batch whose sums could overflow
    folds per row; queued partials flush before their total could."""

    SCHEMA = Schema.of(("g", DataType.INT), ("v", DataType.INT))

    def run(self, rows, batch_rows, monkeypatch):
        verdicts = []
        real = AggregateOp._consume_columnar

        def spy(self, *args):
            verdicts.append(real(self, *args))
            return verdicts[-1]

        monkeypatch.setattr(AggregateOp, "_consume_columnar", spy)
        folded = aggregate(self.SCHEMA, rows, ["g"], [("sum", "v")],
                           batch_rows, columnar_only)
        monkeypatch.undo()
        expected = aggregate(self.SCHEMA, rows, ["g"], [("sum", "v")],
                             batch_rows, per_row)
        assert folded == expected
        return folded[0], verdicts

    def test_batch_that_could_overflow_falls_back(self, monkeypatch):
        big = INT64_SAFE // 2
        rows = [(0, big), (0, big), (1, 3), (0, big), (0, big), (0, big)]
        out, verdicts = self.run(rows, 2, monkeypatch)
        assert out == [(0, 5 * big), (1, 3)]
        assert 5 * big > 2 ** 63 - 1
        assert verdicts == [False, True, False]

    def test_queued_partials_flush_before_overflow(self, monkeypatch):
        big = INT64_SAFE // 8
        rows = [(0, big)] * 64 + [(1, -big)] * 64
        out, verdicts = self.run(rows, 4, monkeypatch)
        assert out == [(0, 64 * big), (1, -64 * big)]
        assert 64 * big > 2 ** 63 - 1
        assert all(verdicts)


def test_queue_stays_bounded_by_the_groups(monkeypatch):
    """Many batches over many groups: the queued partials never outgrow
    the group count by more than the slack, and still fold exactly."""
    from repro.executor import operators

    schema = Schema.of(("g", DataType.INT), ("v", DataType.INT))
    rng = random.Random(3)
    rows = [(rng.randint(0, 199), rng.randint(-9, 9)) for _ in range(4000)]
    monkeypatch.setattr(operators._Partials, "SLACK", 64)
    sizes, entries = [], []
    real_add = operators._Partials.add

    def add(self, numbers, parts, accs):
        real_add(self, numbers, parts, accs)
        sizes.append((self.size, len(accs)))
        entries.append(len(numbers))

    monkeypatch.setattr(operators._Partials, "add", add)
    folded = aggregate(schema, rows, ["g"], [("sum", "v"), ("min", "v")],
                       50, columnar_only)
    monkeypatch.undo()
    expected = aggregate(schema, rows, ["g"], [("sum", "v"), ("min", "v")],
                         50, per_row)
    assert folded == expected
    assert sum(entries) > 4 * (200 + 64)  # unbounded, the queue would grow
    assert all(size <= groups + 64 for size, groups in sizes)
