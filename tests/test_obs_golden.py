"""Frozen observability output: what ``db.metrics()``, the drift report,
the event log and the statement records say about a fixed script.

Each golden-corpus workload runs every query untraced and traced, a
prepared statement twice, INSERT/UPDATE/DELETE, BEGIN...COMMIT and
BEGIN...ROLLBACK, one failing statement, EXPLAIN and CTAS; the drift
narrative and the two-site failover run as scripts of their own. Every
statement counts as slow. ``tests/golden/obs__*.json`` holds, per
script:

- ``metrics``: ``db.metrics()``, with ``latency`` reduced to per-kind
  counts (the rest of a histogram is wall time);
- ``drift``: ``drift_report().as_dict()`` without ``window``;
- ``events``: the event log without ``ts`` / ``seconds``;
- ``records``: ``(query_id, kind, status, rows, plan_cache)`` per
  statement record, oldest first.

Snapshots compare as parsed JSON, so ``3.0 == 3``. Refresh with
``--update-golden`` only for an intentional change to what these
surfaces report.
"""

import json

import pytest

from repro import Options, ReproError
from repro.distributed.network import FaultPlan, RetryPolicy
from repro.workloads import fresh_drift, run_drift_narrative

from tests.test_plan_golden import (
    GOLDEN_DIR,
    WORKLOADS,
    _distributed_db,
    _regime_config,
)

#: every statement is slow, so the slow path is part of every snapshot
SLOW = 1e-9

SCRATCH_SCRIPT = [
    "CREATE TABLE ObsScratch (a INT, b INT)",
    "INSERT INTO ObsScratch VALUES (1, 10), (2, 20), (3, 30)",
    "UPDATE ObsScratch SET b = b + 1 WHERE a = 2",
    "DELETE FROM ObsScratch WHERE a = 3",
    "BEGIN",
    "INSERT INTO ObsScratch VALUES (4, 40)",
    "COMMIT",
    "BEGIN",
    "UPDATE ObsScratch SET b = 0",
    "ROLLBACK",
]


def _observed(db) -> dict:
    metrics = db.metrics()
    if "latency" in metrics:
        metrics["latency"] = {kind: data["count"]
                              for kind, data in metrics["latency"].items()}
    drift = db.drift_report().as_dict()
    del drift["window"]
    events = [{key: value for key, value in event.items()
               if key not in ("ts", "seconds")}
              for event in db.event_log.events()]
    records = [(entry.query_id, entry.kind, entry.status, entry.rows,
                entry.plan_cache)
               for entry in reversed(db.querylog.recent(
                   db.querylog.window))]
    return {"metrics": metrics, "drift": drift, "events": events,
            "records": records}


def _watched(db):
    db.configure(slow_query_seconds=SLOW)
    db.event_log.enable()
    return db


def _corpus_script(workload):
    build, queries = WORKLOADS[workload]
    db = _watched(build())
    for _key, sql in queries:
        db.sql(sql)
        db.sql(sql, options=Options(trace=True))
    _key, first = queries[0]
    handle = db.prepare(first)
    handle.execute()
    handle.execute()
    for text in SCRATCH_SCRIPT:
        db.sql(text)
    with pytest.raises(ReproError):
        db.sql("SELECT nope FROM ObsScratch")
    db.sql("EXPLAIN " + first)
    db.sql("CREATE TABLE ObsCopy AS SELECT a, b FROM ObsScratch "
           "WHERE a < 3")
    return db


def _narrative_script():
    _lines, db = run_drift_narrative(_watched(fresh_drift()))
    return db


def _failover_script():
    _key, sql = WORKLOADS["distributed"][1][2]  # remote_agg
    db = _distributed_db()
    db.add_site("siteC")
    db.catalog.add_replica("Cust", "siteC")
    db.set_fault_plan(
        FaultPlan(down_sites=frozenset({"siteB"})), seed=0,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001),
    )
    _watched(db).sql(sql, config=_regime_config(db, {}),
                     options=Options(trace=True))
    assert db.degradation_events
    return db


SCRIPTS = dict(
    {workload: (lambda w=workload: _corpus_script(w))
     for workload in WORKLOADS},
    narrative=_narrative_script,
    degraded_failover=_failover_script,
)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_observability_snapshot(script, update_golden):
    observed = json.loads(json.dumps(_observed(SCRIPTS[script]()),
                                     sort_keys=True))
    path = GOLDEN_DIR / ("obs__%s.json" % script)
    if update_golden:
        path.write_text(json.dumps(observed, indent=1, sort_keys=True)
                        + "\n")
        return
    assert path.exists(), (
        "missing golden file %s — run with --update-golden to create it"
        % path)
    assert observed == json.loads(path.read_text()), (
        "observability snapshot %s changed; if intentional, refresh with "
        "--update-golden and review the diff" % script)
