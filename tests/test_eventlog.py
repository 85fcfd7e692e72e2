"""The structured query event log: lifecycle chains, JSON-lines
export, and the distributed retry/degradation events."""

import io
import json
import random

import pytest

from repro import Database, DataType, EventLog, Options
from repro.distributed import DistributedDatabase, distributed_config
from repro.distributed.network import FaultPlan, RetryPolicy
from repro.obs.log import QUERY_EVENT_ORDER


def _tiny_db():
    db = Database()
    db.create_table("T", [("a", DataType.INT)])
    db.insert("T", [(i,) for i in range(10)])
    db.analyze()
    return db


class TestEventLogUnit:
    def test_disabled_by_default_and_emit_is_noop(self):
        log = EventLog()
        assert not log.enabled
        assert log.emit("query_start", query_id="q1") is None
        assert len(log) == 0

    def test_enable_emit_filter(self):
        log = EventLog()
        log.enable()
        qid = "q1"
        log.emit("query_start", query_id=qid, kind="select")
        log.emit("query_end", query_id=qid, status="ok")
        log.emit("query_start", query_id="q2")
        assert len(log) == 3
        assert [e["event"] for e in log.events(query_id=qid)] == \
            ["query_start", "query_end"]
        assert len(log.events(event="query_start")) == 2

    def test_ring_buffer_ages_out(self):
        log = EventLog(capacity=5)
        log.enable()
        for i in range(9):
            log.emit("execute", query_id="q%d" % i)
        assert len(log) == 5
        assert log.events()[0]["query_id"] == "q4"

    def test_jsonl_round_trip(self):
        log = EventLog()
        log.enable()
        log.emit("parse", query_id="q1", seconds=0.001)
        log.emit("error", query_id="q1", message='with "quotes"')
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[1]["message"] == 'with "quotes"'

    def test_sink_receives_json_lines(self):
        sink = io.StringIO()
        log = EventLog()
        log.enable(sink)
        log.emit("execute", query_id="q1", rows=3)
        record = json.loads(sink.getvalue())
        assert record["event"] == "execute" and record["rows"] == 3

    def test_render_empty_and_tail(self):
        log = EventLog()
        assert "no events" in log.render()
        log.enable()
        log.emit("query_start", query_id="q1", kind="select")
        assert "query_start" in log.render()


class TestDatabaseThreading:
    def test_successful_query_chain(self):
        db = _tiny_db()
        db.event_log.enable()
        result = db.sql("SELECT a FROM T")
        assert result.query_id == "q1"
        chain = [e["event"] for e in db.event_log.events(query_id="q1")]
        assert chain == ["query_start", "parse", "optimize", "plan_cache",
                         "execute", "query_end"]
        order = {name: i for i, name in enumerate(QUERY_EVENT_ORDER)}
        assert chain == sorted(chain, key=order.__getitem__)

    def test_optimize_event_carries_planner_counters(self):
        db = _tiny_db()
        db.event_log.enable()
        db.sql("SELECT a FROM T WHERE a > 3")
        (opt,) = db.event_log.events(event="optimize")
        assert opt["plans_considered"] >= 1
        assert opt["memo_entries"] >= 1

    def test_plan_cache_hit_and_miss_events(self):
        db = _tiny_db()
        db.configure(use_cache=True)
        db.event_log.enable()
        db.sql("SELECT a FROM T")
        db.sql("SELECT a FROM T")
        db.sql("SELECT a FROM T")
        outcomes = [e["outcome"]
                    for e in db.event_log.events(event="plan_cache")]
        # a one-shot text is stored on its second miss
        assert outcomes == ["miss", "miss", "hit"]
        # only the misses planned from scratch, so only they optimized
        optimized = db.event_log.events(event="optimize")
        assert len(optimized) == 2
        assert optimized[0]["query_id"] == "q1"

    def test_error_event_then_end(self):
        db = _tiny_db()
        db.event_log.enable()
        with pytest.raises(Exception):
            db.sql("SELECT nope FROM Missing M")
        events = db.event_log.events(query_id="q1")
        assert [e["event"] for e in events[-2:]] == \
            ["error", "query_end"]
        assert events[-1]["status"] == "error"
        assert events[-2]["error"]

    def test_query_ids_increment_and_off_means_none(self):
        db = _tiny_db()
        db.event_log.enable()
        first = db.sql("SELECT a FROM T")
        second = db.sql("SELECT a FROM T")
        assert (first.query_id, second.query_id) == ("q1", "q2")
        # ids name the statement's record, log or no log
        db.event_log.disable()
        assert db.sql("SELECT a FROM T").query_id == "q3"

    def test_ddl_statements_logged_too(self):
        db = _tiny_db()
        db.event_log.enable()
        db.sql("CREATE TABLE U (x INT)")
        (start,) = db.event_log.events(event="query_start")
        assert start["kind"] == "create_table"


def _distributed_db():
    rng = random.Random(1)
    db = DistributedDatabase(distributed_config(1.0, 0.001))
    db.create_table("Orders", [("oid", DataType.INT),
                               ("cid", DataType.INT),
                               ("total", DataType.INT)])
    db.create_table("Cust", [("cid", DataType.INT),
                             ("name", DataType.STR)], site="siteB")
    db.insert("Orders", [
        (i, rng.randint(1, 50), rng.randint(1, 1000))
        for i in range(1, 301)
    ])
    db.insert("Cust", [(c, "n%d" % c) for c in range(1, 51)])
    db.analyze()
    return db


QUERY = ("SELECT O.oid, C.name FROM Orders O, Cust C "
         "WHERE O.cid = C.cid AND O.total > 900")


class TestDistributedEvents:
    def test_degradation_event_names_site(self):
        db = _distributed_db()
        db.event_log.enable()
        db.set_fault_plan(FaultPlan(down_sites=frozenset({"siteB"})),
                          seed=1,
                          retry_policy=RetryPolicy(max_attempts=2))
        db.sql(QUERY)
        (event,) = db.event_log.events(event="degradation")
        assert event["site"] == "siteB"
        assert event["attempts"] >= 1

    def test_retry_event_counts_network_retries(self):
        db = _distributed_db()
        db.event_log.enable()
        db.set_fault_plan(FaultPlan(drop_rate=0.5), seed=1,
                          retry_policy=RetryPolicy(max_attempts=10))
        result = db.sql(QUERY)
        events = db.event_log.events(event="retry")
        assert events, "lossy network produced no retry events"
        assert events[0]["retries"] >= 1
        assert events[0]["query_id"] == result.query_id
