"""Transaction-plumbing overhead: under 20 us/statement, durability off.

Every mutation now routes through ``TransactionManager.atomic()`` —
an implicit begin, an undo registration, and an implicit commit per
statement — and every SELECT pays one ``check_usable()`` test. With
``durability="off"`` (the default) no redo is buffered and no WAL
exists, so the whole layer must cost ~nothing: this benchmark pits the
txn-routed write path against the pre-transactional one (direct
``Table.insert_many`` + catalog version bump, exactly what ``insert``
compiled to before the transaction layer) on a mixed insert/query
workload. The plumbing is a fixed cost per statement, so the gate is
absolute: the median paired difference, per statement, stays under
20 microseconds (it measures 7-15 on a shared machine; a second
registration or a buffered redo record per statement doubles it).

``python benchmarks/bench_txn_overhead.py`` also reports WAL-on commit
throughput (durability "commit": fsync per commit, and "lazy": no
fsync) so a durability regression is visible even though only the
off-path is gated.
"""

import gc
import statistics
import time

from repro import Database, DataType
from repro.txn import MemoryStorage, WriteAheadLog

REPEATS = 150        # insert-batch/query pairs per trial
BATCH = 20           # rows per insert
STATEMENTS = REPEATS + (REPEATS + 9) // 10  # inserts + reads per loop
MAX_PLUMBING_US = 20.0  # per statement
TRIALS = 21          # paired trials; the median difference is what counts

QUERY = "SELECT b, COUNT(*) FROM Load WHERE a >= 0 GROUP BY b"


def bench_db():
    db = Database()
    db.create_table("Load", [("a", DataType.INT), ("b", DataType.INT),
                             ("c", DataType.STR)])
    db.insert("Load", [(i, i % 7, "w%d" % i) for i in range(50)])
    db.analyze("Load")
    return db


def batch(i):
    base = i * BATCH
    return [(base + j, j % 7, "r%d" % j) for j in range(BATCH)]


def run_txn_loop(db, repeats=REPEATS):
    """The real write path: txn-routed inserts, occasional reads."""
    rows = None
    for i in range(repeats):
        db.insert("Load", batch(i))
        if i % 10 == 0:
            rows = db.sql(QUERY).rows
    return rows


def run_bare_loop(db, repeats=REPEATS):
    """The seed's write path: straight into storage, bump the version
    by hand — no atomic() wrapper, no undo, no usability check."""
    table = db.catalog.table("Load")
    rows = None
    for i in range(repeats):
        table.insert_many(batch(i))
        db.catalog.bump_version()
        if i % 10 == 0:
            rows = db.sql(QUERY).rows
    return rows


def measured_overhead():
    """(plumbing microseconds per statement, bare_seconds, txn_seconds).

    Interleaved bare/txn pairs with GC off; the overhead is the median
    of per-pair differences so machine-wide drift hits both halves
    equally.
    """
    bare_db = bench_db()
    txn_db = bench_db()
    # warm both paths (stats, imports, allocator, plan cache)
    expected = run_bare_loop(bare_db, 2)
    got = run_txn_loop(txn_db, 2)
    assert sorted(got) == sorted(expected), \
        "transaction plumbing changed the answer"

    extra = []
    bare = txn = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(TRIALS):
            started = time.perf_counter()
            run_bare_loop(bare_db)
            bare_trial = time.perf_counter() - started
            started = time.perf_counter()
            run_txn_loop(txn_db)
            txn_trial = time.perf_counter() - started
            extra.append(txn_trial - bare_trial)
            bare = min(bare, bare_trial)
            txn = min(txn, txn_trial)
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(extra) / STATEMENTS * 1e6, bare, txn


def commit_throughput(durability):
    """Commits/second for tiny explicit transactions with the WAL on."""
    db = Database()
    db.configure(durability=durability)
    db.attach_wal(WriteAheadLog(MemoryStorage()))
    db.create_table("Load", [("a", DataType.INT), ("b", DataType.INT),
                             ("c", DataType.STR)])
    commits = 200
    started = time.perf_counter()
    for i in range(commits):
        db.sql("BEGIN")
        db.insert("Load", batch(i))
        db.sql("COMMIT")
    elapsed = time.perf_counter() - started
    return commits / elapsed


def test_txn_plumbing_under_20_us_per_statement():
    overhead, bare, txn = measured_overhead()
    assert overhead < MAX_PLUMBING_US, (
        "transaction plumbing %.1f us/statement >= %.0f (bare %.3fs, "
        "txn %.3fs)" % (overhead, MAX_PLUMBING_US, bare, txn)
    )


def main():
    overhead, bare, txn = measured_overhead()
    print("bare: %.3fs for %d batches (%.0f inserts/s)"
          % (bare, REPEATS, REPEATS * BATCH / bare))
    print("txn:  %.3fs for %d batches (%.0f inserts/s)  "
          "[atomic() + undo + usability checks, durability off]"
          % (txn, REPEATS, REPEATS * BATCH / txn))
    print("overhead: %+.1f us/statement (maximum allowed: %.0f)"
          % (overhead, MAX_PLUMBING_US))
    for durability in ("lazy", "commit"):
        print("WAL-on commit throughput (durability=%s): %.0f commits/s"
              % (durability, commit_throughput(durability)))
    if overhead >= MAX_PLUMBING_US:
        raise SystemExit("FAIL: plumbing above %.0f us/statement"
                         % MAX_PLUMBING_US)
    print("OK")


if __name__ == "__main__":
    main()
