"""Query observability: structured tracing, per-database metrics,
estimate-drift reporting, the query event log, and the optimizer
search trace.

- :mod:`~repro.obs.trace` — per-operator span trees with exact
  cost-ledger attribution, attached to ``QueryResult.trace`` and
  exportable as JSON or Chrome-trace format;
- :mod:`~repro.obs.querylog` — the statement record every collector
  reads (id, phase seconds, plan-cache verdict, rows, cost, status,
  drift samples) in the one per-statement ring buffer, slow-query
  capture with plan + trace, and per-kind counts and latency
  histograms;
- :mod:`~repro.obs.metrics` — the per-database registry of the
  counters/gauges/histograms no other object owns, surfaced with the
  query log's and plan cache's counts via ``db.metrics()`` and the
  shell's ``\\metrics``;
- :mod:`~repro.obs.drift` — per-operator q-error samples and the
  ``db.drift_report()`` fold over the query log's records, ranked by
  operator and by owning table;
- :mod:`~repro.obs.adaptive` — the feedback loop acting on drift:
  policy-driven automatic re-analyze with plan-cache invalidation;
- :mod:`~repro.obs.render` — the shared EXPLAIN ANALYZE renderer;
- :mod:`~repro.obs.log` — JSON-lines query-lifecycle events behind
  ``db.event_log`` and the shell's ``\\log``;
- :mod:`~repro.obs.opttrace` — the optimizer's DP search as data:
  every memo entry, pruning verdict, and parametric anchor, behind
  ``db.explain(sql, mode="search")`` / ``db.why_not(...)``.

See ``docs/observability.md`` for the span schema and metrics catalog.
"""

from .adaptive import AdaptiveController, AdaptivePolicy
from .drift import DriftReport, DriftSample
from .log import EventLog
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QERROR_BUCKETS,
)
from .opttrace import CandidateRecord, OptimizerTrace, WhyNotReport
from .querylog import QueryLog, QueryLogEntry
from .render import cost_ratio_text, render_explain_analyze
from .trace import QueryTrace, Span, TraceBuilder, owning_table, q_error

__all__ = [
    "AdaptiveController",
    "AdaptivePolicy",
    "CandidateRecord",
    "Counter",
    "DriftReport",
    "DriftSample",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OptimizerTrace",
    "QERROR_BUCKETS",
    "QueryLog",
    "QueryLogEntry",
    "QueryTrace",
    "Span",
    "TraceBuilder",
    "WhyNotReport",
    "cost_ratio_text",
    "owning_table",
    "q_error",
    "render_explain_analyze",
]
