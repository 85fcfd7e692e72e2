"""Estimate drift: which operators does the optimizer mis-estimate, and
by how much?

A traced statement's record (:class:`~repro.obs.querylog.QueryLogEntry`)
carries one :class:`DriftSample` per executed operator. ``db.drift_report()``
folds the samples of the records in the query log's ring — the last 512
statements, so the report tracks *recent* behavior — by operator and by
owning table, and ranks the groups by their worst q-error, naming the
tables and predicates whose statistics most need attention. A table's
samples stop counting once that table is analyzed again: they describe
statistics that no longer exist. This is the measurement half of the
feedback loop PAPERS.md motivates ("Efficient Cost-Based Rewrite"): the
optimizer's estimates become an auditable time series instead of values
that vanish when the plan does.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .trace import q_error


class DriftSample:
    """One operator execution's estimate vs. reality.

    ``table`` is the base table the operator's estimate derives from
    (see :func:`~repro.obs.trace.owning_table`), or None for operators
    like joins whose misestimate has no single owner — those still rank
    in the per-operator report but are invisible to per-table ranking.
    """

    __slots__ = ("operator", "node_type", "statement",
                 "est_rows", "actual_rows", "q_error", "table")

    def __init__(self, operator: str, node_type: str, statement: str,
                 est_rows: float, actual_rows: float,
                 table: Optional[str] = None):
        self.operator = operator
        self.node_type = node_type
        self.statement = statement
        self.est_rows = float(est_rows)
        self.actual_rows = float(actual_rows)
        self.q_error = q_error(est_rows, actual_rows)
        self.table = table

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def trace_samples(trace) -> Tuple[DriftSample, ...]:
    """One sample per executed operator span of a finished
    :class:`~repro.obs.trace.QueryTrace` that carried an estimate."""
    return tuple(
        DriftSample(span.name, span.node_type, trace.statement,
                    span.est_rows, span.actual_rows, span.table)
        for span in trace.operator_spans()
        if span.executions and span.est_rows is not None)


class DriftGroup:
    """Aggregated samples for one operator label (``operator`` and
    ``node_type`` set) or for one owning table (``table`` set) — the
    adaptive policy's unit, since ``analyze`` targets tables."""

    def __init__(self, operator: Optional[str] = None,
                 node_type: Optional[str] = None,
                 table: Optional[str] = None):
        self.operator = operator
        self.node_type = node_type
        self.table = table
        self.samples = 0
        self.max_q_error = 1.0
        self.sum_q_error = 0.0
        self.worst: Optional[DriftSample] = None

    def add(self, sample: DriftSample) -> None:
        self.samples += 1
        self.sum_q_error += sample.q_error
        if sample.q_error >= self.max_q_error:
            self.max_q_error = sample.q_error
            self.worst = sample

    @property
    def mean_q_error(self) -> float:
        return self.sum_q_error / self.samples if self.samples else 1.0

    def as_dict(self) -> dict:
        key = ({"table": self.table} if self.table is not None else
               {"operator": self.operator, "node_type": self.node_type})
        return dict(
            key,
            samples=self.samples,
            max_q_error=self.max_q_error,
            mean_q_error=self.mean_q_error,
            worst=self.worst.as_dict() if self.worst else None,
        )


class DriftReport:
    """Drift groups ranked worst-first, with a text rendering.

    ``groups`` ranks operators by max q-error (ties broken by mean, then
    sample count); ``tables`` ranks owning tables by *mean* q-error —
    the adaptive policy's trigger metric, chosen over max because a
    single outlier execution should not force a re-analyze but a
    consistently wrong table should. ``window`` is the number of
    statement records the samples were drawn from.
    """

    def __init__(self, samples: Iterable[DriftSample], window: int):
        groups: Dict[str, DriftGroup] = {}
        tables: Dict[str, DriftGroup] = {}
        recorded = 0
        for sample in samples:
            recorded += 1
            group = groups.get(sample.operator)
            if group is None:
                group = groups[sample.operator] = DriftGroup(
                    sample.operator, sample.node_type)
            group.add(sample)
            if sample.table is not None:
                aggregate = tables.get(sample.table)
                if aggregate is None:
                    aggregate = tables[sample.table] = DriftGroup(
                        table=sample.table)
                aggregate.add(sample)
        self.groups: List[DriftGroup] = sorted(
            groups.values(),
            key=lambda g: (-g.max_q_error, -g.mean_q_error, -g.samples,
                           g.operator),
        )
        self.tables: List[DriftGroup] = sorted(
            tables.values(),
            key=lambda t: (-t.mean_q_error, -t.max_q_error, -t.samples,
                           t.table),
        )
        self.window = window
        self.recorded = recorded

    @property
    def worst(self) -> Optional[DriftGroup]:
        return self.groups[0] if self.groups else None

    @property
    def empty(self) -> bool:
        """True when the window holds no samples (no traced queries)."""
        return self.recorded == 0

    def as_dict(self) -> dict:
        return {
            "window": self.window,
            "recorded": self.recorded,
            "empty": self.empty,
            "groups": [g.as_dict() for g in self.groups],
            "tables": [t.as_dict() for t in self.tables],
        }

    def render(self, limit: int = 10) -> str:
        if not self.groups:
            return "\n".join([
                "estimate drift: no traced queries in the window "
                "(the last %d statements)." % self.window,
                "Run queries with tracing on to collect samples:",
                "  db.sql(q, options=Options(trace=True))  "
                "or  db.configure(trace=True)",
            ])
        lines = [
            "estimate drift over the last %d operator executions "
            "(window: %d statements):"
            % (self.recorded, self.window),
            "%-6s %-10s %-9s %-44s %s"
            % ("rank", "max q-err", "mean", "operator", "worst est->actual"),
        ]
        for rank, group in enumerate(self.groups[:limit], start=1):
            worst = group.worst
            est_actual = (
                "%g -> %g" % (worst.est_rows, worst.actual_rows)
                if worst else "-"
            )
            lines.append(
                "%-6d %-10.2f %-9.2f %-44s %s"
                % (rank, group.max_q_error, group.mean_q_error,
                   group.operator[:44], est_actual)
            )
        if len(self.groups) > limit:
            lines.append("... and %d more operator groups"
                         % (len(self.groups) - limit))
        if self.tables:
            lines.append("")
            lines.append("by owning table (mean q-error):")
            lines.append("%-6s %-20s %-9s %-10s %s"
                         % ("rank", "table", "mean", "max q-err",
                            "samples"))
            for rank, table in enumerate(self.tables[:limit], start=1):
                lines.append(
                    "%-6d %-20s %-9.2f %-10.2f %d"
                    % (rank, table.table[:20], table.mean_q_error,
                       table.max_q_error, table.samples)
                )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
