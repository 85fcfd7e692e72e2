"""Query observability: structured tracing, process metrics,
estimate-drift recording, the query event log, and the optimizer
search trace.

- :mod:`~repro.obs.trace` — per-operator span trees with exact
  cost-ledger attribution, attached to ``QueryResult.trace`` and
  exportable as JSON or Chrome-trace format;
- :mod:`~repro.obs.metrics` — counters/gauges/histograms chained to a
  process-global registry, surfaced via ``db.metrics()`` and the
  shell's ``\\metrics``;
- :mod:`~repro.obs.drift` — a ring buffer of per-operator q-errors
  behind ``db.drift_report()``, now also aggregated per owning table;
- :mod:`~repro.obs.adaptive` — the feedback loop acting on drift:
  policy-driven automatic re-analyze with plan-cache invalidation;
- :mod:`~repro.obs.querylog` — the statement record every collector
  reads (id, phase seconds, plan-cache verdict, rows, cost, status) in
  a ring buffer, slow-query capture with plan + trace, and per-kind
  latency histograms;
- :mod:`~repro.obs.render` — the shared EXPLAIN ANALYZE renderer;
- :mod:`~repro.obs.log` — JSON-lines query-lifecycle events behind
  ``db.event_log`` and the shell's ``\\log``;
- :mod:`~repro.obs.opttrace` — the optimizer's DP search as data:
  every memo entry, pruning verdict, and parametric anchor, behind
  ``db.explain(sql, mode="search")`` / ``db.why_not(...)``.

See ``docs/observability.md`` for the span schema and metrics catalog.
"""

from .adaptive import AdaptiveController, AdaptivePolicy
from .drift import DriftRecorder, DriftReport, DriftSample, TableDrift
from .log import EventLog
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QERROR_BUCKETS,
    global_metrics,
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
    "DriftRecorder",
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
    "TableDrift",
    "TraceBuilder",
    "WhyNotReport",
    "cost_ratio_text",
    "global_metrics",
    "owning_table",
    "q_error",
    "render_explain_analyze",
]
