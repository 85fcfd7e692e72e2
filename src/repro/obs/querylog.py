"""The statement record: one :class:`QueryLogEntry` per executed
statement, kept in a ring-buffer :class:`QueryLog` with per-statement-kind
counts and latency histograms.

``Database._execute_statement`` — the only way a statement runs — takes
a query id from the log, creates one entry, fills it while the statement
goes through its phases, and writes it once, in a ``finally``, whether
the statement succeeded or raised. Every collector reads that entry
(``Database._observe``): this log with its per-kind counts (behind
``queries_total`` / ``slow_queries_total``) and histograms, the
event-log chain (:meth:`QueryLogEntry.events`), the trace's phase spans
(:meth:`QueryLogEntry.phases`), and the drift report, which folds the
``drift`` samples of the entries in the ring (:meth:`QueryLog.drift_samples`).
The entry holds numbers, short strings and drift samples only — never
rows, plan nodes or the ledger object — so the ring's memory is bounded
by its window.

Statements slower than ``Options.slow_query_seconds`` are *slow-query*
entries and additionally capture the full ``explain`` plan text (and
the span trace as a dict when the statement was traced), so an offender
on a production server arrives with everything needed to replay and
diagnose it. There is no switch: taking the times and writing the record
costs a few microseconds a statement, and ``bench/run.py`` measures every
workload with it on.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .drift import DriftSample
from .metrics import Histogram

#: latency bucket upper edges in seconds: half-millisecond floor, five
#: second ceiling — wide enough for embedded microqueries and slow
#: served scans alike
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: longest statement text a record keeps
STATEMENT_CHARS = 500


def one_line(text: str, limit: int = STATEMENT_CHARS) -> str:
    """``text`` with whitespace runs collapsed, cut to ``limit``
    characters (only a bounded prefix is looked at, so a megabyte
    INSERT costs what a one-liner does). Idempotent."""
    return " ".join(text[:4 * limit].split())[:limit]


class QueryLogEntry:
    """One executed statement, start to finish.

    ``seconds`` is the wall time including parse; the five phase fields
    are the parts of it that belong to a layer (a phase the statement
    never entered, or raised in, stays 0). ``plan_cache`` is ``"hit"``
    / ``"miss"`` when the statement went through the plan cache, and
    the planner counts are set when an optimization actually ran.
    ``rows`` is rows returned by a query, rows affected by DML;
    ``access`` / ``rows_examined`` say how UPDATE/DELETE found them.
    ``drift`` is a traced query's :class:`~repro.obs.drift.DriftSample`
    per executed operator.
    """

    __slots__ = ("query_id", "session", "kind", "_text", "status",
                 "error", "message", "started_at", "seconds",
                 "parse_seconds", "bind_seconds", "plan_seconds",
                 "lower_seconds", "execute_seconds", "plan_cache",
                 "plans_considered", "memo_entries", "rows", "cost",
                 "access", "rows_examined", "slow", "plan", "trace",
                 "drift")

    def __init__(self, statement: str = "", kind: str = "other",
                 seconds: float = 0.0, rows: int = 0, cost: float = 0.0,
                 session: str = "", slow: bool = False,
                 plan: Optional[str] = None,
                 trace: Optional[dict] = None,
                 query_id: Optional[str] = None,
                 parse_seconds: float = 0.0):
        self.query_id = query_id
        self.session = session
        self.kind = kind
        # a bounded prefix of the raw text; nobody pays for cutting it
        # to one line until somebody reads it
        self._text = statement[:4 * STATEMENT_CHARS]
        self.status = "ok"
        self.error: Optional[str] = None
        self.message: Optional[str] = None
        self.started_at = time.time()
        self.seconds = seconds
        self.parse_seconds = parse_seconds
        self.bind_seconds = 0.0
        self.plan_seconds = 0.0
        self.lower_seconds = 0.0
        self.execute_seconds = 0.0
        self.plan_cache: Optional[str] = None
        self.plans_considered: Optional[int] = None
        self.memo_entries: Optional[int] = None
        self.rows = rows
        self.cost = cost
        self.access: Optional[str] = None
        self.rows_examined: Optional[int] = None
        self.slow = slow
        self.plan = plan
        self.trace = trace
        self.drift: Optional[Tuple[DriftSample, ...]] = None

    @property
    def statement(self) -> str:
        """The statement text on one line, at most
        :data:`STATEMENT_CHARS` characters."""
        text = self._text = one_line(self._text)
        return text

    def fail(self, exc: BaseException) -> None:
        self.status = "error"
        self.error = type(exc).__name__
        self.message = str(exc)[:200]

    def phases(self) -> Tuple[Tuple[str, float], ...]:
        """``(phase name, seconds)`` in pipeline order — the trace's
        phase spans are built from exactly this."""
        return (("parse", self.parse_seconds),
                ("bind", self.bind_seconds),
                ("optimize", self.plan_seconds),
                ("lower", self.lower_seconds),
                ("execute", self.execute_seconds))

    def events(self) -> Iterator[Tuple[float, str, dict]]:
        """The statement's event-log chain as ``(seconds after start,
        event, fields)``, in ``QUERY_EVENT_ORDER``."""
        yield 0.0, "query_start", {
            "kind": self.kind, "statement": self.statement[:200],
            "session": self.session}
        at = self.parse_seconds
        yield at, "parse", {"seconds": round(self.parse_seconds, 6)}
        at += self.bind_seconds + self.plan_seconds
        if self.plans_considered is not None:
            yield at, "optimize", {
                "seconds": round(self.plan_seconds, 6),
                "plans_considered": self.plans_considered,
                "memo_entries": self.memo_entries}
        if self.plan_cache is not None:
            yield at, "plan_cache", {"outcome": self.plan_cache}
        if self.status != "ok":
            yield self.seconds, "error", {
                "error": self.error, "message": self.message}
            yield self.seconds, "query_end", {"status": self.status}
            return
        if self.access is not None:
            yield self.seconds, "execute", {
                "rows": self.rows, "access": self.access,
                "rows_examined": self.rows_examined}
        elif self.execute_seconds:  # a plan ran
            ran = self.lower_seconds + self.execute_seconds
            yield at + ran, "execute", {
                "rows": self.rows, "seconds": round(ran, 6),
                "measured_cost": round(self.cost, 3)}
        yield self.seconds, "query_end", {
            "status": self.status, "rows": self.rows}

    def as_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.__slots__
                if name != "_text"}
        data["statement"] = self.statement
        for name in ("error", "message", "plan_cache",
                     "plans_considered", "memo_entries", "access",
                     "rows_examined", "plan", "trace", "drift"):
            if data[name] is None:
                del data[name]
        if self.drift is not None:
            data["drift"] = [sample.as_dict() for sample in self.drift]
        return data

    def __repr__(self) -> str:
        return "QueryLogEntry(%r, %.3fms%s)" % (
            self.statement.strip()[:40], self.seconds * 1e3,
            ", slow" if self.slow else "",
        )


class QueryLog:
    """Bounded, thread-safe statement records for one database.

    Two ring buffers — all recent statements and the slow-query subset
    (slow entries are heavy: they carry plan text and trace dicts, so
    they get their own smaller window and survive long after the fast
    traffic around them aged out) — plus, per statement kind, a latency
    histogram (whose count is the kind's statement count) and a slow
    count. The log also hands out query ids. One flat lock; every
    operation is a handful of deque/dict steps, so sessions contend for
    nanoseconds.
    """

    def __init__(self, window: int = 512, slow_window: int = 64):
        self.window = window
        self.slow_window = slow_window
        self._entries: deque = deque(maxlen=window)
        self._slow: deque = deque(maxlen=slow_window)
        self._latency: Dict[str, Histogram] = {}
        self._slow_counts: Dict[str, int] = {}
        # table -> statements recorded when it was last analyzed: drift
        # samples from those statements no longer count
        self._retired: Dict[str, int] = {}
        self._query_ids = itertools.count(1)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def new_query_id(self) -> str:
        """The next statement's id: ``"q1"``, ``"q2"``, ..."""
        return "q%d" % next(self._query_ids)

    # ---------------------------------------------------------- recording

    def record(self, entry: Optional[QueryLogEntry] = None,
               **fields) -> QueryLogEntry:
        """Write one finished statement's record (built from ``fields``
        when no ``entry`` is handed in)."""
        if entry is None:
            entry = QueryLogEntry(**fields)
        with self._lock:
            self._entries.append(entry)
            if entry.slow:
                self._slow.append(entry)
                self._slow_counts[entry.kind] = (
                    self._slow_counts.get(entry.kind, 0) + 1)
            histogram = self._latency.get(entry.kind)
            if histogram is None:
                histogram = self._latency[entry.kind] = Histogram(
                    "query_latency_seconds{%s}" % entry.kind,
                    bounds=LATENCY_BUCKETS)
            histogram.observe(entry.seconds)
        return entry

    def retire(self, tables: Iterable[str]) -> None:
        """Stop counting the drift samples of ``tables`` recorded so
        far (their statistics were just rebuilt)."""
        with self._lock:
            recorded = self._recorded()
            for table in tables:
                self._retired[table] = recorded

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._slow.clear()
            self._latency.clear()
            self._slow_counts.clear()
            self._retired.clear()

    # ------------------------------------------------------------ reading

    def _recorded(self) -> int:
        return sum(h.count for h in self._latency.values())

    @property
    def recorded(self) -> int:
        """Statements recorded since the log was created or cleared."""
        with self._lock:
            return self._recorded()

    @property
    def slow_recorded(self) -> int:
        with self._lock:
            return sum(self._slow_counts.values())

    def counts(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``({kind: statements}, {kind: slow statements})``."""
        with self._lock:
            return ({kind: h.count for kind, h in self._latency.items()},
                    dict(self._slow_counts))

    def drift_samples(self) -> List[DriftSample]:
        """The drift samples of the records in the ring, oldest first,
        without those of a table analyzed after they were taken."""
        with self._lock:
            entries = list(self._entries)
            first = self._recorded() - len(entries)
            retired = dict(self._retired)
        return [sample
                for position, entry in enumerate(entries, first)
                if entry.drift
                for sample in entry.drift
                if position >= retired.get(sample.table, 0)]

    def recent(self, limit: int = 50) -> List[QueryLogEntry]:
        """The most recent entries, newest first."""
        with self._lock:
            entries = list(self._entries)
        entries.reverse()
        return entries[:limit]

    def slowest(self, limit: int = 10) -> List[QueryLogEntry]:
        """The slowest entries in the slow window, slowest first."""
        with self._lock:
            entries = list(self._slow)
        entries.sort(key=lambda e: -e.seconds)
        return entries[:limit]

    def latency_summary(self) -> Dict[str, dict]:
        """Per-statement-kind latency histograms as plain dicts, with
        estimated p50/p99 attached."""
        with self._lock:
            histograms = dict(self._latency)
        out = {}
        for kind in sorted(histograms):
            histogram = histograms[kind]
            data = histogram.as_dict()
            data["p50"] = histogram.quantile(0.5)
            data["p99"] = histogram.quantile(0.99)
            out[kind] = data
        return out

    # ---------------------------------------------------------- rendering

    def render(self, limit: int = 10) -> str:
        """The shell's ``\\slow`` view: slowest statements, one line
        each."""
        entries = self.slowest(limit)
        if not entries:
            return ("no slow queries recorded "
                    "(nothing crossed slow_query_seconds)")
        lines = ["%-10s %-8s %-8s %-6s %s"
                 % ("ms", "kind", "rows", "sess", "statement")]
        for entry in entries:
            lines.append("%-10.2f %-8s %-8d %-6s %s" % (
                entry.seconds * 1e3, entry.kind, entry.rows,
                entry.session or "-", entry.statement[:60],
            ))
        return "\n".join(lines)
