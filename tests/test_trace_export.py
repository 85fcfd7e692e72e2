"""Export-format tests: the Chrome-trace span export (unique ids,
valid parent/child pairing, file round-trip) and the optimizer
search-trace JSON export round-trip."""

import json

import pytest

from repro import Database, DataType, OptimizerTrace
from repro.workloads import MOTIVATING_QUERY, build_empdept


@pytest.fixture(scope="module")
def traced(empdept_db):
    result = empdept_db.sql(MOTIVATING_QUERY)
    assert result.trace is not None
    return result.trace


class TestChromeTrace:
    def test_span_ids_unique_across_phases(self, traced):
        events = traced.to_chrome_trace()
        ids = [e["args"]["span_id"] for e in events]
        assert len(ids) == len(set(ids)), "duplicate span ids"
        # phases and operators share one id space
        kinds = {e["args"]["kind"] for e in events}
        assert {"query", "phase", "operator"} <= kinds

    def test_event_pairing_valid(self, traced):
        """Every non-root event names an existing parent, the root has
        none, and every 'X' slice fits inside its parent's slice."""
        events = traced.to_chrome_trace()
        by_id = {e["args"]["span_id"]: e for e in events}
        roots = [e for e in events if "parent_id" not in e["args"]]
        assert len(roots) == 1 and roots[0]["name"] == "query"
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] > 0
            parent_id = event["args"].get("parent_id")
            if parent_id is None:
                continue
            parent = by_id[parent_id]
            assert event["ts"] >= parent["ts"] - 1e-6
            assert (event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + 1e-3)

    def test_tree_rebuilds_from_ids(self, traced):
        events = traced.to_chrome_trace()
        children = {}
        for event in events:
            parent_id = event["args"].get("parent_id")
            if parent_id is not None:
                children.setdefault(parent_id, []).append(event)
        root = next(e for e in events if "parent_id" not in e["args"])
        # phases hang off the root, in the span tree's phase order
        phase_names = [c["name"]
                       for c in children[root["args"]["span_id"]]]
        assert "execute" in phase_names

    def test_round_trip_file_load(self, traced, tmp_path):
        path = traced.save_chrome_trace(str(tmp_path / "trace.json"))
        loaded = json.load(open(path))
        assert loaded == traced.to_chrome_trace()
        assert all("span_id" in e["args"] for e in loaded)

    def test_operator_events_keep_estimates(self, traced):
        ops = [e for e in traced.to_chrome_trace()
               if e["args"]["kind"] == "operator"]
        assert ops
        assert all("est_rows" in e["args"] for e in ops)
        assert all("cost_ledger" in e["args"] for e in ops)


class TestSearchTraceExport:
    def test_json_file_round_trip(self, empdept_db, tmp_path):
        trace = OptimizerTrace()
        empdept_db.plan(MOTIVATING_QUERY, search=trace)
        path = tmp_path / "search.json"
        path.write_text(trace.to_json_str())
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(trace.to_json_str())
        assert loaded["format"] == "repro-search-trace/v1"
        assert loaded["metrics"]["plans_considered"] == \
            len(loaded["records"])

    def test_records_serialize_all_fields(self, empdept_db):
        trace = OptimizerTrace()
        empdept_db.plan(MOTIVATING_QUERY, search=trace)
        record = json.loads(trace.to_json_str())["records"][0]
        for key in ("seq", "aliases", "method", "cost", "verdict",
                    "sort_order", "site", "chosen"):
            assert key in record
