"""Observability tour: traces, metrics, and the drift report.

Runs the paper's motivating query and walks the span tree built from
the actuals every query records — per-operator wall time, cost-ledger
attribution, and estimated-vs-actual row counts. Then lets a table's statistics go
stale, shows ``drift_report()`` naming it, and exports the trace in
Chrome's ``chrome://tracing`` / Perfetto format.

Run:  python examples/tracing.py
"""

import json
import os
import tempfile

import repro
from repro import Database

SCHEMA = """
CREATE TABLE Dept (did INT, budget INT);
CREATE TABLE Emp (eid INT, did INT, sal INT, age INT);
CREATE VIEW DepAvgSal AS (
    SELECT E.did, AVG(E.sal) AS avgsal
    FROM Emp E
    GROUP BY E.did
);
"""

QUERY = """
SELECT E.did, E.sal, V.avgsal
FROM Emp E, Dept D, DepAvgSal V
WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
  AND E.age < 30 AND D.budget > 100000
"""


def load_data(db: Database) -> None:
    db.insert("Dept", [
        (did, 150_000 if did <= 5 else 50_000) for did in range(1, 61)
    ])
    rows = []
    eid = 0
    for did in range(1, 61):
        for k in range(20):
            eid += 1
            age = 25 if k % 4 == 0 else 40
            sal = 40_000 + (eid * 7919) % 60_000
            rows.append((eid, did, sal, age))
    db.insert("Emp", rows)
    db.analyze()


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    db = repro.connect()
    db.execute_script(SCHEMA)
    load_data(db)

    banner("A query's record: every operator becomes a span")
    result = db.sql(QUERY)
    trace = result.trace
    print("%d rows; phases: %s" % (
        len(result.rows),
        "  ".join("%s %.1fms" % (name, span.wall_seconds * 1e3)
                  for name, span in trace.phases.items()),
    ))
    print()
    for span in trace.operator_spans():
        q = "q-err %.2f" % span.q_error if span.q_error else "unexecuted"
        print("  %-44s est %8.1f  actual %6d  %s"
              % (span.name[:44], span.est_rows or 0.0,
                 span.actual_rows, q))
    print()
    print("span ledgers reconcile with the measured ledger exactly:")
    trace.reconcile(result.ledger)
    print("  total %s" % result.ledger)

    banner("EXPLAIN ANALYZE renders the same span tree")
    print(db.explain_analyze(QUERY))

    banner("Metrics (db.metrics() / shell \\metrics)")
    metrics = db.metrics()
    queries = metrics["queries_total"]
    print("queries by kind: %s" % json.dumps(queries["by_label"]))
    print("q-error histogram count: %d"
          % metrics["query_qerror"]["count"])

    banner("Estimate drift: stale statistics are named, not guessed at")
    # grow Emp 5x with young employees *without* re-running analyze —
    # the optimizer still plans with the old histograms
    stale = [(10_000 + i, 1 + i % 60, 45_000, 25) for i in range(2400)]
    db.insert("Emp", stale)
    for _ in range(3):
        db.sql(QUERY)
    print(db.drift_report().render(limit=5))
    print()
    print("after re-analyze, drift falls back to steady state:")
    db.analyze()  # retires every sample taken under the old statistics
    db.sql(QUERY)
    worst = db.drift_report().worst
    print("  worst q-error now %.2f (%s)"
          % (worst.max_q_error, worst.operator))

    banner("Chrome-trace export (load in chrome://tracing or Perfetto)")
    fd, path = tempfile.mkstemp(suffix=".json", prefix="repro_trace_")
    os.close(fd)
    try:
        trace.save_chrome_trace(path)
        events = json.load(open(path))
        print("wrote %d events to %s" % (len(events), path))
        print("first event: %s" % json.dumps(events[0]))
    finally:
        os.unlink(path)


if __name__ == "__main__":
    main()
