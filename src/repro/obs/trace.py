"""Structured query tracing: one span per physical operator plus one per
pipeline phase (parse/bind/optimize/lower/execute).

A :class:`Span` carries the optimizer's estimates next to what actually
happened — wall time, row counts, and the exact :class:`CostLedger`
charges attributable to that operator — so estimate drift, Filter-Join
effectiveness, and hot operators are first-class, inspectable artifacts
on every query (``QueryResult.trace``), not strings inside
``explain_analyze``.

Nothing here runs while a statement executes. Every operator keeps its
own actuals as it runs (``Operator.batches``): executions, batches,
rows, inclusive wall time, kernel/fallback batch counts, and the ledger
charges it made — the statement ledger's ``sink`` slot points at the
running operator's ledger, so each charge lands on exactly one
operator, and the statement's ledger itself is charged exactly as
before. ``run_plan`` copies those numbers into the statement's record
(:class:`~repro.obs.querylog.QueryLogEntry`) in plan pre-order, and
:func:`query_trace` builds the span tree from the plan and the record
when something first reads it. The execute phase's inclusive ledger is
the measured ledger and therefore reconciles *exactly* with
``QueryResult.ledger``; per-span self-ledgers reconcile up to float
addition reordering (see :meth:`QueryTrace.reconcile`).
"""

from __future__ import annotations

import json
import time
from dataclasses import fields
from typing import Dict, Iterator, List, Optional

from ..ledger import CostLedger

LEDGER_FIELDS = tuple(f.name for f in fields(CostLedger))


def q_error(est: float, actual: float) -> float:
    """The q-error max(est/actual, actual/est), clamped to >= 1.

    Cardinalities below one row (including the troublesome zero) are
    clamped to one before dividing, so an estimate of 0.3 rows against
    an actual 0 is a perfect q-error of 1.0 rather than a division by
    zero — the convention the drift recorder and ``explain_analyze``
    share.
    """
    est = max(float(est), 1.0)
    actual = max(float(actual), 1.0)
    return max(est / actual, actual / est)


class Span:
    """One node of a query trace.

    ``kind`` is ``"phase"`` for pipeline phases, ``"operator"`` for
    physical operators, and ``"query"`` for the root. Ledger counts are
    kept in two forms: ``self_ledger`` holds the charges attributed to
    this span alone; ``ledger`` additionally includes every descendant.
    ``wall_seconds`` is inclusive.
    """

    __slots__ = (
        "name", "kind", "node_type", "table", "est_rows", "est_cost",
        "actual_rows", "executions", "batches", "wall_seconds",
        "self_seconds", "self_ledger", "ledger", "extras", "children",
    )

    def __init__(self, name: str, kind: str = "operator",
                 node_type: str = "",
                 est_rows: Optional[float] = None,
                 est_cost: Optional[float] = None,
                 table: Optional[str] = None):
        self.name = name
        self.kind = kind
        self.node_type = node_type
        self.table = table
        self.est_rows = est_rows
        self.est_cost = est_cost
        self.actual_rows = 0
        self.executions = 0
        self.batches = 0  # batch advancements
        self.wall_seconds = 0.0
        self.self_seconds = 0.0
        self.self_ledger = CostLedger()
        self.ledger = CostLedger()
        self.extras: Dict[str, object] = {}
        self.children: List["Span"] = []

    @property
    def q_error(self) -> Optional[float]:
        """Cardinality q-error, or None for phases / unexecuted nodes."""
        if self.kind != "operator" or not self.executions \
                or self.est_rows is None:
            return None
        return q_error(self.est_rows, self.actual_rows)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            for span in child.walk():
                yield span

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "kind": self.kind,
            "wall_seconds": self.wall_seconds,
            "self_seconds": self.self_seconds,
        }
        if self.kind == "operator":
            data.update({
                "node_type": self.node_type,
                "est_rows": self.est_rows,
                "est_cost": self.est_cost,
                "actual_rows": self.actual_rows,
                "executions": self.executions,
                "q_error": self.q_error,
                "self_ledger": self.self_ledger.as_dict(),
                "ledger": self.ledger.as_dict(),
            })
            if self.table is not None:
                data["table"] = self.table
            if self.batches:
                data["batches"] = self.batches
        if self.extras:
            data["extras"] = dict(self.extras)
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data

    def __repr__(self) -> str:
        return "Span(%s%s, rows=%d, %.3fms)" % (
            self.name[:40], " never-run" if not self.executions else "",
            self.actual_rows, self.wall_seconds * 1e3,
        )


def owning_table(plan_node) -> Optional[str]:
    """The base-table name a plan node's cardinality estimate derives
    from, or None when there is no single answer.

    Scan nodes own their relation's table outright (filter-set scans
    have no backing table and yield None). A node with exactly one
    child — filters, projections, aggregates over one input — inherits
    its child's table: its misestimate is still that table's statistics
    rotting. Joins and other multi-input nodes attribute to no single
    table, deliberately: a join's misestimate can be caused by *either*
    input's statistics (a filter join probing too many rows is usually
    the production side's fault, not the probed table's), and blaming
    the wrong table would make the adaptive loop re-analyze tables
    whose statistics are fine.
    """
    relation = getattr(plan_node, "relation", None)
    if relation is not None:
        table = getattr(relation, "table", None)
        return getattr(table, "name", None)
    children = plan_node.children()
    if len(children) == 1:
        return owning_table(children[0])
    return None


def walk_plan(node) -> Iterator:
    """``node`` and its descendants in pre-order."""
    yield node
    for child in node.children():
        yield from walk_plan(child)


def describe(plan) -> tuple:
    """``(label, node type, owning table, est_rows)`` per node of
    ``plan`` in pre-order — what a statement record keeps of its plan,
    so that drift samples come from the record alone. Memoised on the
    plan: a cached plan is described once however often it runs, and
    its labels stay those of the plan (a prepared plan renders ``?1``,
    not the bound value)."""
    described = getattr(plan, "_described", None)
    if described is None:
        described = plan._described = tuple(
            (node.label(), type(node).__name__, owning_table(node),
             node.est_rows)
            for node in walk_plan(plan))
    return described


def query_trace(plan, record, ledger: CostLedger) -> "QueryTrace":
    """The span tree of one execution of ``plan``: one operator span
    per plan node from ``record.operators`` (each node's
    :class:`~repro.executor.operators.Actuals`, in pre-order), phase
    spans from the record's phase seconds, and
    ``ledger`` — the statement's measured ledger — as the execute
    phase's."""
    phases = {}
    for name, seconds in record.phases():
        span = phases[name] = Span(name, kind="phase")
        span.wall_seconds = span.self_seconds = seconds
        span.executions = 1
    if record.plan_cache is not None:
        phases["optimize"].extras["plan_cache"] = record.plan_cache
    by_node: Dict[int, Span] = {}
    entries = zip(describe(plan), record.operators)

    def build(node) -> Span:
        (label, node_type, table, est_rows), actual = next(entries)
        span = Span(label, "operator", node_type, est_rows,
                    node.est_cost, table)
        span.executions = actual.executions
        span.batches = actual.batches
        span.actual_rows = actual.rows
        span.wall_seconds = actual.seconds
        span.self_ledger = CostLedger(
            actual.page_reads, actual.page_writes, actual.tuple_cpu,
            actual.net_msgs, actual.net_bytes, actual.fn_invocations)
        span.extras.update(kernel_batches=actual.kernel_batches,
                           fallback_batches=actual.fallback_batches)
        for name, value in (actual.extras or {}).items():
            if value is not None and value != {}:
                span.extras[name] = value
        by_node[id(node)] = span
        span.children = [build(child) for child in node.children()]
        span.ledger = span.self_ledger.snapshot()
        for child in span.children:
            span.ledger.merge(child.ledger)
        span.self_seconds = max(0.0, span.wall_seconds - sum(
            child.wall_seconds for child in span.children))
        return span

    execute = phases["execute"]
    execute.children = [build(plan)]
    execute.ledger = ledger.snapshot()
    execute.self_ledger = ledger.snapshot()
    root = Span("query", kind="query")
    root.children = list(phases.values())
    root.wall_seconds = sum(c.wall_seconds for c in root.children)
    root.executions = 1
    return QueryTrace(record.statement, root, by_node)


class QueryTrace:
    """The finished span tree for one executed statement."""

    def __init__(self, statement: str, root: Span,
                 by_node: Optional[Dict[int, Span]] = None):
        self.statement = statement
        self.root = root
        self.created_at = time.time()
        self._by_node = by_node or {}

    # ----------------------------------------------------------- accessors

    @property
    def phases(self) -> Dict[str, Span]:
        return {span.name: span for span in self.root.children}

    @property
    def operator_root(self) -> Optional[Span]:
        execute = self.phases.get("execute")
        if execute is None or not execute.children:
            return None
        return execute.children[0]

    def span_for(self, plan_node) -> Optional[Span]:
        """The span recorded for one plan node (for plan-tree renders)."""
        return self._by_node.get(id(plan_node))

    def operator_spans(self) -> List[Span]:
        root = self.operator_root
        return list(root.walk()) if root is not None else []

    def walk(self) -> Iterator[Span]:
        return self.root.walk()

    @property
    def total_ledger(self) -> CostLedger:
        """The execute phase's ledger — exactly ``QueryResult.ledger``."""
        execute = self.phases.get("execute")
        return execute.ledger if execute is not None else CostLedger()

    @property
    def wall_seconds(self) -> float:
        return self.root.wall_seconds

    @property
    def max_q_error(self) -> float:
        """The worst per-operator cardinality q-error (1.0 if nothing
        executed)."""
        worst = 1.0
        for span in self.operator_spans():
            q = span.q_error
            if q is not None and q > worst:
                worst = q
        return worst

    # ------------------------------------------------------ reconciliation

    def reconcile(self, ledger: CostLedger,
                  rel_tol: float = 1e-9, abs_tol: float = 1e-6) -> dict:
        """Check the span tree's ledger accounting against the query's
        measured ledger; raises ``ValueError`` on any discrepancy.

        Two checks, matching how the numbers are produced:

        - the execute phase's inclusive ledger must equal ``ledger``
          *exactly* (it is a snapshot delta of the same accumulator);
        - the per-span self-ledgers must sum to ``ledger`` within float
          addition reordering (``abs_tol + rel_tol * total`` per
          component) — attribution routes every charge to exactly one
          span, but summing per-span floats re-associates the additions.

        Returns ``{field: summed value}`` for inspection.
        """
        expected = ledger.as_dict()
        exact = self.total_ledger.as_dict()
        if exact != expected:
            raise ValueError(
                "trace execute-phase ledger %r != measured ledger %r"
                % (exact, expected)
            )
        summed = dict.fromkeys(LEDGER_FIELDS, 0.0)
        for span in self.walk():
            if span.kind == "operator":
                for name, value in span.self_ledger.as_dict().items():
                    summed[name] += value
        for name in LEDGER_FIELDS:
            want = expected[name]
            if abs(summed[name] - want) > abs_tol + rel_tol * abs(want):
                raise ValueError(
                    "span self-ledgers sum to %s=%r, measured %r"
                    % (name, summed[name], want)
                )
        return summed

    # ------------------------------------------------------------- export

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "created_at": self.created_at,
            "wall_seconds": self.wall_seconds,
            "max_q_error": self.max_q_error,
            "total_ledger": self.total_ledger.as_dict(),
            "root": self.root.to_dict(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_chrome_trace(self) -> List[dict]:
        """Chrome-trace ("catapult") complete events for
        ``chrome://tracing`` / Perfetto.

        Span wall times are accumulated across interleaved iterator
        advancements, so the timeline is *synthesized*: each span is
        rendered as one contiguous slice of its inclusive duration,
        children laid out left to right inside their parent. Durations
        are faithful; start offsets are not.

        Each event's ``args`` carries a ``span_id`` unique across the
        whole export (phases included) and the ``parent_id`` of its
        enclosing span (absent on the root), so tooling can rebuild the
        tree without relying on the synthesized time layout.
        """
        events: List[dict] = []
        ids = iter(range(1, 1 << 30))

        def emit(span: Span, start_us: float, parent_avail: float,
                 parent_id: Optional[int] = None) -> None:
            duration = min(span.wall_seconds * 1e6, parent_avail)
            span_id = next(ids)
            args = {"kind": span.kind, "executions": span.executions,
                    "span_id": span_id}
            if parent_id is not None:
                args["parent_id"] = parent_id
            if span.kind == "operator":
                args.update({
                    "node_type": span.node_type,
                    "est_rows": span.est_rows,
                    "actual_rows": span.actual_rows,
                    "q_error": span.q_error,
                    "cost_ledger": span.self_ledger.as_dict(),
                })
            if span.extras:
                args["extras"] = {
                    k: v for k, v in span.extras.items()
                    if isinstance(v, (int, float, str, bool))
                }
            events.append({
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": round(start_us, 3),
                "dur": round(max(duration, 0.01), 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
            offset = start_us
            for child in span.children:
                emit(child, offset, duration, span_id)
                offset += min(child.wall_seconds * 1e6, duration)

        emit(self.root, 0.0, self.root.wall_seconds * 1e6 or 1.0)
        return events

    def save_chrome_trace(self, path: str) -> str:
        """Write the Chrome-trace JSON to ``path``; returns the path."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)
        return path

    def __repr__(self) -> str:
        return "QueryTrace(%r, %d spans, %.3fms)" % (
            self.statement.strip()[:40], sum(1 for _ in self.walk()),
            self.wall_seconds * 1e3,
        )
