"""Smoke tests: every example script runs and prints its story."""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return out.getvalue()


def test_quickstart():
    output = run_example("quickstart.py")
    assert "Cost-based plan" in output
    assert "cost-based" in output
    assert "First five answers" in output


def test_decision_support():
    output = run_example("decision_support.py")
    assert "Measured cost by rewrite policy" in output
    assert "Example plan" in output


def test_distributed_semijoin():
    output = run_example("distributed_semijoin.py")
    assert "Two-site join" in output
    assert "winner" in output


def test_udf_relations():
    output = run_example("udf_relations.py")
    assert "geocode" in output
    assert "75 calls" in output


def test_heterogeneous_view():
    output = run_example("heterogeneous_view.py")
    assert "remote" in output or "branch" in output
    assert "cost-based optimizer" in output


def test_optimizer_tracing():
    output = run_example("optimizer_tracing.py")
    assert "EXPLAIN SEARCH" in output
    assert "why-not filter_join: it WAS chosen." in output
    assert "enable_filter_join=False" in output
    assert "repro-search-trace/v1" in output
    assert '"event": "optimize"' in output
    assert "candidates by method" in output


def test_tracing():
    output = run_example("tracing.py")
    assert "every operator becomes a span" in output
    assert "reconcile with the measured ledger exactly" in output
    assert "estimate drift over the last" in output
    assert "Chrome-trace export" in output
    assert "wrote" in output and "events" in output


def test_transactions():
    output = run_example("transactions.py")
    assert "rows after failed insert: 2 (unchanged)" in output
    assert "Audit exists: False" in output
    assert "owners after partial rollback: ada, bob, cyd" in output
    assert "refused while aborted" in output
    assert "recovered 3 committed txns" in output


def test_server_client():
    output = run_example("server_client.py")
    assert "each its own session" in output
    assert "snapshot pinned until her COMMIT" in output
    assert "SerializationError" in output
    assert "balance 70" in output
    assert "the connection survives: ping=True" in output
    assert "0 connections left open" in output


@pytest.mark.parametrize("name, marker", [
    ("columnar_results.py", "px mean over non-NULL fills"),
    ("recursive_views.py", "recursive view Chain agrees with the CTE"),
    ("fault_tolerance.py", "resilience stats"),
])
def test_library_tours(name, marker):
    assert marker in run_example(name)
