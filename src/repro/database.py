"""The public façade: an embedded database with a cost-based optimizer
that treats magic-sets rewriting as a join method.

Typical use::

    from repro import Database

    db = Database()
    db.execute_script(open("schema.sql").read())
    db.analyze()
    result = db.sql("SELECT ... FROM Emp E, Dept D, DepAvgSal V WHERE ...")
    print(result.rows)
    print(db.explain("SELECT ..."))

Every query is parsed, bound against the catalog, optimized by the
System-R planner (with Filter Joins), lowered, and executed; the measured
cost ledger rides along on the :class:`QueryResult`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from .algebra.block import QueryBlock
from .errors import (
    ParameterError,
    ReproError,
    SchemaError,
    TransactionError,
)
from .executor.lowering import execute_collect as execute_tree
from .executor.lowering import lower
from .executor.runtime import RuntimeContext
from .expr.nodes import PARAMETER_TYPES
from .ledger import CostLedger
from .obs.adaptive import AdaptiveController
from .obs.drift import DriftReport, trace_samples
from .obs.log import EventLog
from .obs.metrics import MetricsRegistry, labelled_counter
from .obs.querylog import QueryLog, QueryLogEntry
from .obs.opttrace import OptimizerTrace, WhyNotReport
from .obs.render import render_explain_analyze
from .obs.trace import QueryTrace, TraceBuilder
from .options import OPTION_FIELDS, Options
from .optimizer.config import OptimizerConfig
from .optimizer.parametric import RestrictionMemo
from .optimizer.planner import Planner, PlannerMetrics
from .optimizer.plans import PlanNode
from .plancache import (
    DEFAULT_CAPACITY,
    PlanCache,
    PlanCacheEntry,
    cache_key,
)
from .sql import ast
from .sql.binder import Binder
from .sql.dml import compile_expr
from .sql.parser import Parser, parse
from .storage import columnar
from .storage.catalog import Catalog
from .storage.schema import Column, DataType, Schema
from .txn.manager import TransactionManager
from .udf.relation import FunctionRegistry

_TYPE_MAP = {
    "int": DataType.INT,
    "float": DataType.FLOAT,
    "str": DataType.STR,
    "bool": DataType.BOOL,
}

#: statement class -> the record's kind (the queries_total label)
_STATEMENT_KINDS = {
    "SelectStmt": "select",
    "UnionStmt": "union",
    "WithStmt": "select",
    "ExplainStmt": "explain",
    "CreateTableStmt": "create_table",
    "CreateTableAsStmt": "create_table_as",
    "CreateViewStmt": "create_view",
    "CreateIndexStmt": "create_index",
    "InsertStmt": "insert",
    "UpdateStmt": "update",
    "DeleteStmt": "delete",
    "DropStmt": "drop",
    "BeginStmt": "begin",
    "CommitStmt": "commit",
    "RollbackStmt": "rollback",
    "SavepointStmt": "savepoint",
    "ReleaseStmt": "release",
}


_QUERY_STATEMENTS = (ast.SelectStmt, ast.UnionStmt, ast.WithStmt)


class ColumnNames(list):
    """The result's column names — a plain list of strings, so every
    pre-existing ``result.columns`` call site (the shell, the wire
    protocol, ``to_dicts``) keeps working — that is *also* callable:
    ``result.columns()`` returns the columnar view, a dict mapping each
    column name to its numpy value array (see
    :meth:`QueryResult.column` for the per-column form with the null
    mask)."""

    def __init__(self, names, result: "QueryResult"):
        super().__init__(names)
        self._result = result

    def __call__(self) -> dict:
        return {name: self._result.column(name)[0] for name in self}


@dataclass
class QueryResult:
    """Rows plus everything an experiment wants to know about the run."""

    rows: List[tuple]
    schema: Schema
    plan: Optional[PlanNode] = None
    ledger: CostLedger = field(default_factory=CostLedger)
    metrics: Optional[PlannerMetrics] = None
    elapsed_seconds: float = 0.0
    statement_kind: str = "select"
    # True when the plan was served by the cross-statement plan cache
    # rather than freshly optimized for this call
    cached_plan: bool = False
    # the span tree for this execution (only when traced)
    trace: Optional[QueryTrace] = None
    # the optimizer's DP search trace (only when the search_trace
    # option is on); see OptimizerTrace.render() / .why_not()
    search: Optional[OptimizerTrace] = None
    # the id ("q1", "q2", ...) of this statement's record, which the
    # event log's chain for it shares
    query_id: Optional[str] = None
    # per-column typed arrays retained from the execution (ColumnVector
    # or plain list per column); None on an empty or DML result —
    # column()/columns() then build arrays from the rows on demand
    column_data: Optional[list] = None

    @property
    def columns(self) -> "ColumnNames":
        return ColumnNames(self.schema.names(), self)

    def column(self, name: str):
        """One output column as ``(values, nulls)`` numpy arrays.

        ``values`` is a typed array (int64/float64/bool; strings decode
        from their dictionary into an object array) and ``nulls`` is a
        boolean array marking NULL positions — where ``nulls`` is True
        the corresponding ``values`` slot is padding (0 for numerics,
        None for strings) and must not be read. The numeric ``values``
        array *is* the executor's own column (zero-copy) when the root
        operator emitted one; otherwise both arrays are built from the
        rows on first access. Treat them as read-only.
        """
        np = columnar.np
        try:
            j = self.schema.index_of(name)
        except Exception:
            raise ReproError(
                "no output column %r (have: %s)"
                % (name, ", ".join(self.schema.names()) or "none"))
        vec = None
        if self.column_data is not None:
            candidate = self.column_data[j]
            if isinstance(candidate, columnar.ColumnVector):
                vec = candidate
        if vec is None:
            values = [row[j] for row in self.rows]
            vec = columnar.ColumnVector.from_values(
                self.schema.columns[j].dtype, values)
            if vec is None:  # mixed / huge / non-encodable values
                arr = np.empty(len(values), dtype=object)
                for i, value in enumerate(values):
                    arr[i] = value
                nulls = np.fromiter((v is None for v in values),
                                    dtype=bool, count=len(values))
                return arr, nulls
        nulls = (~vec.mask if vec.mask is not None
                 else np.zeros(len(vec), dtype=bool))
        if vec.dictionary is not None:
            entries = np.array(list(vec.dictionary.entries) + [None],
                               dtype=object)
            codes = vec.values
            if vec.mask is not None:
                codes = np.where(vec.mask, codes, len(entries) - 1)
            return entries[codes], nulls
        return vec.values, nulls

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[dict]:
        names = self.schema.names()
        return [dict(zip(names, row)) for row in self.rows]

    def measured_cost(self, params=None) -> float:
        return self.ledger.total(params)

    def __repr__(self) -> str:
        return "QueryResult(%d rows, cost=%.1f)" % (
            len(self.rows), self.ledger.total(),
        )


class Database:
    """An embedded relational database with Filter Join optimization."""

    def __init__(self, config: Optional[OptimizerConfig] = None,
                 plan_cache_size: int = DEFAULT_CAPACITY):
        self.catalog = Catalog()
        self.functions = FunctionRegistry(self.catalog.bump_version)
        self.config = config or OptimizerConfig()
        self.config.validate()
        self.last_planner: Optional[Planner] = None
        # execution defaults (tracing, timeout, cache, memory
        # budget); per-call Options layer over these — see configure()
        self.defaults = Options()
        self._resolved_defaults = (self.defaults, self.defaults.resolved())
        # observability: the counters no other object owns
        self.metrics_registry = MetricsRegistry("db")
        # one record per executed statement (ring buffer, per-kind
        # counts and latency histograms, drift samples); every other
        # collector is fed from that record, in _observe()
        self.querylog = QueryLog()
        # the drift->re-analyze feedback loop; acts only when a traced
        # query ran with an enabled Options.adaptive policy
        self.adaptive = AdaptiveController(self)
        # structured query-lifecycle log (off until .enable() is called)
        self.event_log = EventLog()
        # cross-statement cache of optimized plans; size 0 disables it
        self.plan_cache = PlanCache(plan_cache_size)
        # cross-statement equivalence-class numbers of the parametric
        # inner costers (Section 4.2), shared by every planner
        self.restriction_memo = RestrictionMemo()
        # resilience: an optional SimulatedNetwork every shipment routes
        # through (deadlines now live on self.defaults.timeout)
        self.network = None
        # transactions: statement/transaction atomicity and the WAL
        # (durability is off until configure(durability=...) enables it)
        self.txn = TransactionManager(self)
        # concurrency: statements execute one at a time under this lock
        # (re-entrant: public methods nest through sql()/atomic());
        # isolation between concurrent sessions comes from MVCC row
        # versions, never from interleaving inside a statement
        self._lock = threading.RLock()

    # ----------------------------------------------------------- options

    def configure(self, **options) -> Options:
        """Set execution defaults for this database; returns the new
        defaults. Accepts :class:`Options` field names::

            db.configure(trace=True, use_cache=True)

        Per-call ``options=`` values layer over these; pass ``None`` to
        reset a field to the built-in behavior.
        """
        unknown = set(options) - set(OPTION_FIELDS)
        if unknown:
            raise TypeError(
                "unknown option(s): %s (valid: %s)"
                % (", ".join(sorted(unknown)), ", ".join(OPTION_FIELDS))
            )
        self.defaults = self.defaults.replace(**options)
        return self.defaults

    @contextmanager
    def session(self, **options):
        """Scope execution defaults to a ``with`` block::

            with db.session(trace=True, timeout=5.0):
                db.sql(...)

        Restores the previous defaults on exit, even on error.
        """
        saved = self.defaults
        self.configure(**options)
        try:
            yield self
        finally:
            self.defaults = saved

    def _resolve_options(self, *layers: Optional[Options]) -> Options:
        """BUILTIN <- database defaults <- per-call ``layers`` (later
        wins). Resolved once per statement, at the public entry point;
        the resolved defaults are cached until :meth:`configure` (or
        anything else) replaces ``self.defaults``."""
        source, opts = self._resolved_defaults
        if source is not self.defaults:
            opts = self.defaults.resolved()
            self._resolved_defaults = (self.defaults, opts)
        for layer in layers:
            opts = opts.merged(layer)
        return opts

    # ---------------------------------------------------------- sessions

    def new_session(self, name: Optional[str] = None) -> "Session":
        """Open an independent session (connection): its own
        transaction state over the shared catalog, plan cache, and
        metrics. Safe to use from another thread — statements from all
        sessions execute one at a time under the database lock, with
        MVCC snapshots isolating concurrent transactions::

            s1, s2 = db.new_session(), db.new_session()
            s1.sql("BEGIN")
            s1.sql("INSERT INTO t VALUES (1)")
            s2.sql("SELECT * FROM t")   # does not see s1's row yet
            s1.sql("COMMIT")

        Close with :meth:`Session.close` (or use as a context manager);
        closing rolls back any open transaction, like a disconnect.
        """
        with self._lock:
            return Session(self, self.txn.new_session(name))

    # ---------------------------------------------------------- observability

    def metrics(self) -> dict:
        """A snapshot of every recorded metric, plus network counters
        when a simulated network is installed. Each counter is read
        from its one owner: the registry, the query log
        (``queries_total`` / ``slow_queries_total``) or the plan cache
        (``plan_cache_events_total``)."""
        data = self.metrics_registry.as_dict()
        queries, slow = self.querylog.counts()
        for name, values in (
                ("plan_cache_events_total", self.plan_cache.events()),
                ("queries_total", queries),
                ("slow_queries_total", slow)):
            if values:
                data[name] = labelled_counter(values)
        if self.network is not None:
            data["network"] = self.network.stats.as_dict()
        wal = self.txn._wal  # peek: metrics must not open a WAL lazily
        if wal is not None:
            data["wal"] = wal.stats()
        if self.querylog.recorded:
            data["latency"] = self.querylog.latency_summary()
        return data

    def drift_report(self) -> DriftReport:
        """Estimate drift over the traced statements among the last
        ``querylog.window`` records, worst operators first; a table's
        samples stop counting once it is analyzed again (see
        ``docs/observability.md``)."""
        return DriftReport(self.querylog.drift_samples(),
                           self.querylog.window)

    # ----------------------------------------------------------------- DDL

    def create_table(self, name: str,
                     columns: Union[Schema, Sequence, None] = None, *,
                     schema: Union[Schema, Sequence, None] = None,
                     rows=None):
        """Create a table with a typed schema.

        The schema comes from either positional ``columns`` or the
        ``schema=`` keyword (they are aliases; passing both raises) and
        may be a :class:`Schema`, ``(name, DataType)`` pairs, or — the
        untyped legacy spelling — plain column-name strings, in which
        case dtypes are inferred from ``rows`` (:meth:`Schema.inferred`
        backfill; bools before ints, INT+FLOAT widens to FLOAT).
        Dtype-violating inserts against the resulting table raise
        :class:`~repro.errors.SchemaError`. ``rows``, when given, are
        inserted after creation::

            db.create_table("emp", schema=Schema.of(
                ("eno", DataType.INT), ("name", DataType.STR)))
            db.create_table("legacy", ["a", "b"],
                            rows=[(1, "x"), (2, None)])
        """
        if (columns is None) == (schema is None):
            raise TypeError(
                "create_table() takes a schema either positionally or "
                "as schema=, not both (and not neither)")
        spec = columns if columns is not None else schema
        if isinstance(spec, Schema):
            resolved = spec
        else:
            spec = list(spec)
            if all(isinstance(item, str) for item in spec) and spec:
                if rows is None:
                    raise SchemaError(
                        "untyped column names require rows= to infer "
                        "dtypes from (or declare (name, DataType) "
                        "pairs)")
                rows = [tuple(row) for row in rows]
                resolved = Schema.inferred(spec, rows)
            else:
                resolved = Schema(
                    Column(col, dtype) for col, dtype in spec)
        with self._lock, self.txn.atomic():
            table = self.txn.do_create_table(name, resolved)
            if rows:
                self.txn.do_insert(name, rows)
            return table

    def drop_table(self, name: str) -> None:
        with self._lock, self.txn.atomic():
            self.txn.do_drop_table(name)

    def create_view(self, name: str, sql_text: str,
                    column_aliases: Optional[Sequence[str]] = None,
                    recursive: bool = False):
        """Register a view; its body is bound lazily at query time.

        ``recursive=True`` declares a recursive view (``CREATE RECURSIVE
        VIEW``): its body may reference the view's own name and is
        evaluated by semi-naive fixpoint (see docs/recursion.md).
        """
        statement = parse(sql_text)  # validate eagerly
        if not isinstance(statement, (ast.SelectStmt, ast.UnionStmt)):
            raise ReproError("a view must be defined by a query")
        with self._lock, self.txn.atomic():
            return self.txn.do_create_view(name, sql_text, column_aliases,
                                           recursive=recursive)

    def drop_view(self, name: str) -> None:
        with self._lock, self.txn.atomic():
            self.txn.do_drop_view(name)

    def create_index(self, table: str, column: str,
                     kind: str = "hash") -> None:
        with self._lock, self.txn.atomic():
            self.txn.do_create_index(table, column, kind)

    def insert(self, table: str, rows) -> int:
        # data changes shift row counts/stats under cached plans; the
        # operation bumps the catalog version so they are re-optimized
        # rather than run with stale estimates
        with self._lock, self.txn.atomic():
            return self.txn.do_insert(table, rows)

    def update(self, table: str, assignments, where: Optional[str] = None
               ) -> int:
        """Programmatic UPDATE: ``assignments`` maps column names to SQL
        value expressions (strings); ``where`` is an optional SQL
        predicate. Equivalent to the UPDATE statement."""
        where_sql = " WHERE %s" % where if where else ""
        sets = ", ".join("%s = %s" % (col, expr)
                         for col, expr in dict(assignments).items())
        return self.sql("UPDATE %s SET %s%s"
                        % (table, sets, where_sql)).rows[0][0]

    def delete(self, table: str, where: Optional[str] = None) -> int:
        """Programmatic DELETE with an optional SQL predicate."""
        where_sql = " WHERE %s" % where if where else ""
        return self.sql("DELETE FROM %s%s"
                        % (table, where_sql)).rows[0][0]

    def delete_rows(self, table: str, rows) -> int:
        """Delete the first visible occurrence of each row value (the
        WAL-replay form of DELETE/UPDATE; see
        :meth:`TransactionManager.do_delete_values`)."""
        with self._lock, self.txn.atomic():
            return self.txn.do_delete_values(table, rows)

    def analyze(self, table: Optional[str] = None) -> None:
        """(Re)collect optimizer statistics for ``table``, or for every
        table; the drift samples taken under the old statistics stop
        counting."""
        with self._lock:
            with self.txn.atomic():
                self.txn.do_analyze(table)
            self.querylog.retire(
                [self.catalog.table(table).name] if table is not None
                else [t.name for t in self.catalog.tables()])

    def vacuum(self) -> dict:
        """Compact away dead row versions in every table; returns
        ``{table: versions_reclaimed}``. Refused while any session has
        an open transaction."""
        with self._lock:
            report = self.txn.vacuum()
            if report:
                # compaction shrinks page counts, which the memoised
                # class numbers priced, without moving the catalog
                # version (auto-vacuum needs no such step: it runs at
                # the commit of a transaction whose own writes moved
                # the version, and nothing is memoised while one is open)
                self.restriction_memo.clear()
            return report

    # ----------------------------------------------------------- durability

    def checkpoint(self) -> dict:
        """Snapshot the full logical state into the WAL and truncate it
        (durability must be on; refused inside a transaction)."""
        with self._lock:
            return self.txn.checkpoint()

    def attach_wal(self, wal) -> None:
        """Install a specific :class:`~repro.txn.wal.WriteAheadLog`
        (tests, crash harnesses, resuming after recovery)."""
        self.txn.attach_wal(wal)

    # --------------------------------------------------------------- binding

    def binder(self) -> Binder:
        return Binder(self.catalog, self.functions.binder_map())

    def bind(self, sql_text: str):
        """Parse and bind a SELECT (or UNION chain) into its canonical
        bound form."""
        return self._bind_statement(parse(sql_text))

    def _bind_statement(self, statement, binder: Optional[Binder] = None):
        binder = binder or self.binder()
        Binder.check_bindable(statement)
        if isinstance(statement, ast.WithStmt):
            return binder.bind_with(statement)
        if isinstance(statement, ast.UnionStmt):
            return binder.bind_union(statement)
        if isinstance(statement, ast.SelectStmt):
            return binder.bind(statement)
        raise ReproError("expected a query, got %r"
                         % type(statement).__name__)

    # -------------------------------------------------------------- planning

    def plan(self, sql_or_block: Union[str, QueryBlock],
             config: Optional[OptimizerConfig] = None,
             search: Optional[OptimizerTrace] = None
             ) -> Tuple[PlanNode, Planner]:
        """Optimize a query; returns the plan and the planner (for its
        metrics and costers). Pass an :class:`OptimizerTrace` as
        ``search`` to record the full DP search; the trace is finalized
        against the winning plan before returning."""
        block = (
            self.bind(sql_or_block) if isinstance(sql_or_block, str)
            else sql_or_block
        )
        # A search trace wants to see every nested run, and while an
        # explicit transaction is open row counts depend on the reader's
        # snapshot, not on the catalog version alone: both plan cold.
        shared = search is None and not self.catalog.mvcc.live
        planner = Planner(self.catalog, config or self.config,
                          trace=search,
                          memo=self.restriction_memo if shared else None)
        plan = planner.plan(block)
        if search is not None:
            search.finalize(plan)
        self.last_planner = planner
        self._record_planner_metrics(planner)
        return plan, planner

    def _record_planner_metrics(self, planner: Planner) -> None:
        """Fold one optimization run's counters into the registry so
        the search shows up in db.metrics() / the shell's ``\\metrics``."""
        registry = self.metrics_registry
        m = planner.metrics
        registry.inc("planner_plans_considered_total", m.plans_considered)
        registry.inc("planner_memo_entries_total", m.dp_entries)
        registry.inc("planner_nested_optimizations_total",
                     m.nested_optimizations)
        registry.inc("planner_restriction_memo_hits_total",
                     m.restriction_memo_hits)
        registry.inc("planner_restriction_memo_misses_total",
                     m.restriction_memo_misses)
        registry.inc("planner_restriction_memo_evictions_total",
                     m.restriction_memo_evictions)
        for method, count in m.candidates_by_method.items():
            registry.inc("planner_candidates_total", count, label=method)
        for method, count in m.pruned_by_method.items():
            registry.inc("planner_candidates_pruned_total", count,
                         label=method)
        saved = sum(
            max(0, coster.estimate_calls - coster.nested_optimizations)
            for coster in planner._costers.values()
        )
        if saved:
            registry.inc("planner_parametric_plans_saved_total", saved)

    def explain(self, sql_text: str,
                config: Optional[OptimizerConfig] = None,
                mode: str = "plan",
                why_not: Optional[str] = None) -> str:
        """The chosen plan as text.

        ``mode="search"`` appends the optimizer's DP search trace: the
        memo lattice level by level with every candidate's cost delta
        and pruning verdict, the parametric-coster anchors, and the
        join methods that never produced a candidate. ``why_not`` names
        a join method (e.g. ``"filter_join"``) and appends a report on
        why the chosen plan does not use it.
        """
        if mode not in ("plan", "search"):
            raise ReproError(
                'explain() mode must be "plan" or "search", got %r'
                % (mode,)
            )
        if mode == "plan" and why_not is None:
            plan, _planner = self.plan(sql_text, config)
            return plan.explain()
        search = OptimizerTrace()
        plan, _planner = self.plan(sql_text, config, search=search)
        sections = [plan.explain()]
        if mode == "search":
            sections.append(search.render())
        if why_not is not None:
            sections.append(search.why_not(why_not).render())
        return "\n\n".join(sections)

    def why_not(self, sql_text: str, method: str,
                config: Optional[OptimizerConfig] = None) -> WhyNotReport:
        """Why the chosen plan does not use ``method`` ("filter_join",
        "bloom", "hash", ...): the nearest rejected candidate, the
        rival that beat it, and the exact cost-ledger terms that lost
        it. Returns a :class:`WhyNotReport`; print ``.render()``."""
        search = OptimizerTrace()
        self.plan(sql_text, config, search=search)
        return search.why_not(method)

    def explain_analyze(self, sql_text: str,
                        config: Optional[OptimizerConfig] = None,
                        search: bool = False) -> str:
        """EXPLAIN plus execution: the plan annotated with per-operator
        actual row counts (from the query's span tree), followed by the
        measured cost ledger and the measured/est cost q-error.
        ``search=True`` also attaches an optimizer search trace, adding
        a candidates-vs-memo summary line to the report."""
        config = config or self.config
        parse_started = time.perf_counter()
        parser = Parser(sql_text)
        statement = parser.parse_statement()
        parse_seconds = time.perf_counter() - parse_started
        if not isinstance(statement, _QUERY_STATEMENTS):
            raise ReproError(
                "EXPLAIN ANALYZE requires a query, got %s"
                % type(statement).__name__
            )
        opts = self._resolve_options(
            Options(trace=True, search_trace=True if search else None))
        result = self._execute_statement(statement, sql_text,
                                         parser.tokens, config, opts,
                                         parse_seconds)
        return render_explain_analyze(result, config.cost_params)

    # ------------------------------------------------------- prepared plans

    def prepare(self, text: str,
                config: Optional[OptimizerConfig] = None
                ) -> "PreparedStatement":
        """Parse (and for queries, optimize) one statement with optional
        ``?`` placeholders; returns a reusable handle.

        Queries are planned immediately and stored in the versioned plan
        cache on this first miss (a one-shot text waits for its second),
        so ``db.prepare(sql).execute(params)`` called repeatedly
        pays for parse/bind/optimize once. The handle re-validates the
        catalog version on every execution — DDL or statistics changes
        transparently trigger a re-plan instead of running a stale plan.
        """
        parser = Parser(text)
        statement = parser.parse_statement()
        return PreparedStatement(self, text, parser.tokens, statement,
                                 parser.param_count, config)

    def cache_stats(self) -> dict:
        """Plan cache counters plus the current catalog version and a
        one-line summary of the restriction memo."""
        stats = self.plan_cache.stats()
        stats["catalog_version"] = self.catalog.version
        stats["restriction_memo"] = (
            "%(entries)d/%(capacity)d entries, %(hits)d hits, "
            "%(misses)d misses, %(evictions)d evictions"
            % self.restriction_memo.stats()
        )
        return stats

    def _resolve_plan(self, statement, tokens: list,
                      config: OptimizerConfig,
                      record: QueryLogEntry, use_cache: bool,
                      search: Optional[OptimizerTrace] = None,
                      prepared: bool = False) -> PlanCacheEntry:
        """The plan for a query statement: the plan cache's entry when
        ``use_cache`` and it is current, else bind + optimize. A miss is
        stored at once for a ``prepared`` handle, else admitted (stored
        on the text's second miss). ``tokens`` are the parser's tokens
        of the statement, the cache key's source. Fills the record's
        bind/plan seconds, cache verdict and planner counts.

        A fresh entry's catalog version is captured *after* planning so
        that lazy statistics builds triggered by the planner itself do
        not invalidate it.
        """
        clock = time.perf_counter
        started = clock()
        key = None
        if use_cache:
            key = cache_key(tokens, config)
            entry = self.plan_cache.lookup(key, self.catalog.version)
            if entry is not None:
                record.plan_cache = "hit"
                record.plan_seconds = clock() - started
                return entry
            record.plan_cache = "miss"
        binder = self.binder()
        block = self._bind_statement(statement, binder)
        bound = clock()
        plan, planner = self.plan(block, config, search=search)
        record.bind_seconds = bound - started
        record.plan_seconds = clock() - bound
        record.plans_considered = planner.metrics.plans_considered
        record.memo_entries = planner.metrics.dp_entries
        entry = PlanCacheEntry(
            key=key,
            plan=plan,
            metrics=planner.metrics,
            parameters=binder.parameter_list(),
            catalog_version=self.catalog.version,
        )
        if prepared:
            self.plan_cache.store(entry)
        elif use_cache:
            self.plan_cache.admit(entry)
        return entry

    # ------------------------------------------------------------- execution

    def run_plan(self, plan: PlanNode,
                 metrics: Optional[PlannerMetrics] = None,
                 config: Optional[OptimizerConfig] = None,
                 opts: Optional[Options] = None,
                 trace: Optional[TraceBuilder] = None,
                 record: Optional[QueryLogEntry] = None
                 ) -> QueryResult:
        """Execute a physical plan and collect rows + measured costs.

        ``config`` supplies the runtime environment (memory, cost
        weights); it should match the config the plan was optimized
        under, defaulting to the database-wide config. ``opts`` is a
        resolved :class:`Options` (defaulting to the database's) whose
        ``timeout``, ``memory_budget_bytes`` (else the config's budget)
        and ``max_fixpoint_iterations`` bound the run. ``trace`` is an
        optional :class:`TraceBuilder` to record this execution into;
        the finished span tree rides on ``result.trace``. ``record`` is
        the statement's record, given the lower/execute seconds, rows
        and ledger total; a bare call gets a scratch one.
        """
        config = config or self.config
        opts = opts or self._resolve_options()
        record = record or QueryLogEntry()
        budget = opts.memory_budget_bytes
        ctx = RuntimeContext(
            params=config.cost_params,
            memory_pages=config.memory_pages,
            message_payload_bytes=config.message_payload_bytes,
            network=self.network,
            deadline_seconds=opts.timeout,
            memory_budget_bytes=(budget if budget is not None
                                 else config.memory_budget_bytes),
            max_fixpoint_iterations=opts.max_fixpoint_iterations,
        )
        clock = time.perf_counter
        with self._lock:
            if trace is not None:
                trace.install(ctx)
            started = clock()
            operator = lower(plan, ctx)
            lowered = clock()
            rows, column_data = execute_tree(operator)
            done = clock()
        record.lower_seconds = lowered - started
        record.execute_seconds = done - lowered
        record.rows = len(rows)
        # a plain snapshot, not the tracing tee subclass, so ledger
        # equality against untraced runs behaves normally
        ledger = ctx.ledger if trace is None else ctx.ledger.snapshot()
        record.cost = ledger.total()
        result = QueryResult(
            rows=rows,
            schema=plan.schema,
            plan=plan,
            ledger=ledger,
            metrics=metrics,
            elapsed_seconds=done - started,
            column_data=column_data,
        )
        if trace is not None:
            result.trace = trace.finish(plan, record)
        return result

    def sql(self, text: str,
            config: Optional[OptimizerConfig] = None,
            options: Optional[Options] = None) -> QueryResult:
        """Execute one SQL statement (query or DDL/DML).

        ``options`` carries the per-call execution knobs — tracing, the
        plan cache, timeouts, and memory budgets (see
        :class:`repro.Options`); anything unset inherits the database
        defaults installed with :meth:`configure` / :meth:`session`.
        """
        effective = self._resolve_options(options)
        parse_started = time.perf_counter()
        parser = Parser(text)
        statement = parser.parse_statement()
        parse_seconds = time.perf_counter() - parse_started
        return self._execute_statement(statement, text, parser.tokens,
                                       config, effective, parse_seconds)

    def execute_script(self, text: str,
                       options: Optional[Options] = None
                       ) -> List[QueryResult]:
        """Execute a ';'-separated script; returns one result per
        statement.

        The whole script is parsed before anything runs, so a syntax
        error anywhere — even in the last statement — means no
        statement executes. At execution time the contract is
        statement-level atomicity: each statement either takes full
        effect or none. When statement *k* of *n* raises, the effects
        of statements 1..k-1 persist, statement *k* leaves no partial
        state behind, and statements k+1..n never run. There is no
        script-level rollback. ``options`` applies per statement, not
        to the script as a whole.
        """
        effective = self._resolve_options(options)
        results = []
        for statement, span, tokens in Parser(text).parse_script_spans():
            results.append(
                self._execute_statement(statement, span, tokens, None,
                                        effective)
            )
        return results

    # ------------------------------------------------------------- internals

    def _execute_statement(self, statement, text: str, tokens: list,
                           config: Optional[OptimizerConfig],
                           opts: Options, parse_seconds: float = 0.0,
                           params: Optional[tuple] = None
                           ) -> QueryResult:
        """The one way a statement runs, whatever the entry point
        (``sql``, ``execute_script``, a session, a prepared handle —
        which passes its ``params`` — ``explain_analyze``, the server):
        under the database lock, inside the session's statement
        snapshot, and described by one record that is written in the
        ``finally`` and handed to :meth:`_observe`. ``opts`` is already
        resolved (:meth:`_resolve_options`)."""
        with self._lock:
            record = QueryLogEntry(
                statement=text,
                kind=_STATEMENT_KINDS.get(type(statement).__name__,
                                          "other"),
                session=self.txn.session.name,
                query_id=self.querylog.new_query_id(),
                parse_seconds=parse_seconds,
            )
            started = time.perf_counter()
            result = None
            try:
                with self.txn.statement_snapshot():
                    result = self._dispatch_statement(
                        statement, text, tokens, config, opts, record,
                        params)
                result.query_id = record.query_id
                return result
            except BaseException as exc:
                # Ctrl-C and friends included: atomic() already undid
                # the statement; the open explicit transaction still
                # becomes aborted
                self.txn.note_error(exc)
                record.fail(exc)
                exc.query_id = record.query_id
                raise
            finally:
                record.seconds = (parse_seconds + time.perf_counter()
                                  - started)
                self._observe(record, result, opts)

    def _observe(self, record: QueryLogEntry,
                 result: Optional[QueryResult], opts: Options) -> None:
        """Feed every collector from one finished statement's record —
        the only code that does: the query log with its per-kind counts,
        latency histograms and slow capture, the event-log chain, and
        for a traced statement the record's drift samples, the q-error
        and operator-row metrics and the adaptive policy (outside the
        statement snapshot, so a triggered re-analyze is its own
        transaction)."""
        trace = result.trace if result is not None else None
        record.slow = record.seconds >= opts.slow_query_seconds
        if record.slow:
            if result is not None and result.plan is not None:
                record.plan = result.plan.explain()
            if trace is not None:
                record.trace = trace.to_dict()
        if trace is not None:
            record.drift = trace_samples(trace)
        self.querylog.record(record)
        log = self.event_log
        if log.enabled:
            for offset, event, fields in record.events():
                log.emit(event, record.query_id,
                         record.started_at + offset, **fields)
        if trace is not None:
            registry = self.metrics_registry
            registry.observe("query_qerror", trace.max_q_error)
            for span in trace.operator_spans():
                if span.executions:
                    registry.inc("operator_rows_total", span.actual_rows,
                                 label=span.node_type)
            self.adaptive.observe(opts.adaptive, result)

    def _dispatch_statement(self, statement, text: str, tokens: list,
                            config: Optional[OptimizerConfig],
                            opts: Options, record: QueryLogEntry,
                            params: Optional[tuple] = None
                            ) -> QueryResult:
        if isinstance(statement, ast.TXN_STATEMENTS):
            return self._txn_statement(statement, opts)
        # an aborted explicit transaction refuses everything except
        # COMMIT/ROLLBACK (handled above) until it is rolled back
        self.txn.check_usable()
        config = config or self.config
        if isinstance(statement, _QUERY_STATEMENTS):
            return self._query(statement, text, tokens, config, opts,
                               record, params)
        if isinstance(statement, ast.ExplainStmt):
            entry = self._resolve_plan(statement.select, tokens, config,
                                       record, use_cache=False)
            lines = entry.plan.explain().splitlines()
            record.rows = len(lines)
            return QueryResult(
                rows=[(line,) for line in lines],
                schema=Schema([Column("plan", DataType.STR)]),
                plan=entry.plan,
                metrics=entry.metrics,
                statement_kind="explain",
            )
        if isinstance(statement, ast.CreateTableStmt):
            columns = [
                (col.name, _TYPE_MAP[col.type_name])
                for col in statement.columns
            ]
            self.create_table(statement.name, columns)
            return _ddl_result("create table")
        if isinstance(statement, ast.CreateTableAsStmt):
            # run the query first (outside the mutation scope: a failing
            # query leaves nothing behind), then create+fill atomically
            result = self._query(statement.query, text, tokens, config,
                                 opts.replace(use_cache=False), record)
            with self.txn.atomic():
                self.txn.do_create_table(statement.name, result.schema)
                if result.rows:
                    self.txn.do_insert(statement.name, result.rows)
            return _count_result("create table as", "inserted",
                                 len(result.rows), record)
        if isinstance(statement, ast.CreateViewStmt):
            self.create_view(
                statement.name, statement.select_text,
                statement.column_aliases,
                recursive=statement.recursive,
            )
            return _ddl_result("create view")
        if isinstance(statement, ast.CreateIndexStmt):
            self.create_index(statement.table, statement.column,
                              statement.kind)
            return _ddl_result("create index")
        if isinstance(statement, ast.InsertStmt):
            count = self.insert(statement.table, statement.rows)
            return _count_result("insert", "inserted", count, record)
        if isinstance(statement, (ast.UpdateStmt, ast.DeleteStmt)):
            return self._dml_statement(statement, record)
        if isinstance(statement, ast.DropStmt):
            if statement.kind == "table":
                self.drop_table(statement.name)
            else:
                self.drop_view(statement.name)
            return _ddl_result("drop")
        raise ReproError("unsupported statement %r" % type(statement).__name__)

    def _query(self, statement, text: str, tokens: list,
               config: OptimizerConfig, opts: Options, record: QueryLogEntry,
               params: Optional[tuple] = None) -> QueryResult:
        """Every query, straight through: resolve the plan (a prepared
        handle's ``params`` always go through the plan cache, an ad-hoc
        text when ``use_cache``; a search trace documents *this*
        optimization run, so it bypasses the cache), bind the parameter
        values onto it, run it."""
        search = OptimizerTrace() if opts.search_trace else None
        prepared = params is not None
        use_cache = search is None and bool(opts.use_cache or prepared)
        entry = self._resolve_plan(statement, tokens, config,
                                   record, use_cache, search, prepared)
        params = params or ()
        if len(entry.parameters) != len(params):
            raise ParameterError(
                "statement has %d parameter(s) not bound; use "
                "db.prepare(...).execute(values)"
                % (len(entry.parameters) - len(params))
            )
        for node, value in zip(entry.parameters, params):
            node.bind(value)
        entry.executions += 1
        result = self.run_plan(
            entry.plan, entry.metrics, config, opts,
            TraceBuilder(text) if opts.trace else None, record)
        result.cached_plan = record.plan_cache == "hit"
        result.search = search
        return result

    def _dml_statement(self, statement, record: QueryLogEntry
                       ) -> QueryResult:
        """UPDATE/DELETE: compiled against the target table's schema;
        the transaction manager finds the target rows through an index
        of the table when a WHERE conjunct allows it, else by walking
        the visible rows (no planner — one table, one access path)."""
        table = self.catalog.table(statement.table)
        schema = table.schema
        where = (compile_expr(statement.where, schema, statement.table)
                 if statement.where is not None else None)
        if isinstance(statement, ast.UpdateStmt):
            assignments = [
                (column, compile_expr(expr, schema, statement.table))
                for column, expr in statement.assignments
            ]
            with self.txn.atomic():
                count, record.access, record.rows_examined = \
                    self.txn.do_update(statement.table, assignments,
                                       where)
            return _count_result("update", "updated", count, record)
        with self.txn.atomic():
            count, record.access, record.rows_examined = \
                self.txn.do_delete(statement.table, where)
        return _count_result("delete", "deleted", count, record)

    def _txn_statement(self, statement, opts: Options) -> QueryResult:
        """BEGIN/COMMIT/ROLLBACK/SAVEPOINT/RELEASE. The result's
        ``statement_kind`` reports what actually happened — COMMIT of an
        aborted transaction rolls back and says so."""
        txn = self.txn
        if isinstance(statement, ast.BeginStmt):
            txn.check_usable()
            txn.begin(isolation=opts.isolation)
            return _ddl_result("begin")
        if isinstance(statement, ast.CommitStmt):
            return _ddl_result(txn.commit())
        if isinstance(statement, ast.RollbackStmt):
            txn.rollback(statement.savepoint)
            return _ddl_result("rollback")
        if isinstance(statement, ast.SavepointStmt):
            txn.check_usable()
            txn.savepoint(statement.name)
            return _ddl_result("savepoint")
        txn.check_usable()
        txn.release(statement.name)
        return _ddl_result("release")


class Session:
    """One connection's view of a shared :class:`Database`.

    A session owns nothing but its transaction state
    (BEGIN/COMMIT/ROLLBACK/SAVEPOINT are per-session); the catalog,
    plan cache, metrics registry, and event log are shared with every
    other session. Statements execute one at a time under the database
    lock — concurrency between sessions is isolation (MVCC snapshots),
    not parallelism. Thread-safe: each server connection or worker
    thread gets its own session.
    """

    def __init__(self, db: Database, state):
        self._db = db
        self._state = state
        self.closed = False

    @property
    def name(self) -> str:
        return self._state.name

    @property
    def in_transaction(self) -> bool:
        return self._state.txn is not None

    def sql(self, text: str, **kwargs) -> QueryResult:
        """Execute one statement as this session (see
        :meth:`Database.sql`)."""
        return self._run(self._db.sql, text, **kwargs)

    def execute_script(self, text: str, **kwargs) -> List[QueryResult]:
        return self._run(self._db.execute_script, text, **kwargs)

    def _run(self, method, *args, **kwargs):
        if self.closed:
            raise TransactionError(
                "session %r is closed" % self.name)
        db = self._db
        with db._lock:
            previous = db.txn.session
            db.txn.bind(self._state)
            try:
                return method(*args, **kwargs)
            finally:
                db.txn.bind(previous)

    def close(self) -> None:
        """Roll back any open transaction and release the session
        (idempotent)."""
        if self.closed:
            return
        with self._db._lock:
            self._db.txn.close_session(self._state)
        self.closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else (
            "in txn" if self.in_transaction else "idle")
        return "Session(%r, %s)" % (self.name, state)


class PreparedStatement:
    """A reusable handle over one parsed statement with ``?`` params.

    Queries execute through the database's versioned plan cache: the
    first execution (or :meth:`Database.prepare` itself) optimizes and
    caches the plan; later executions bind parameter values onto the
    cached plan and run it directly. If the catalog version moved (DDL,
    data change, ANALYZE, placement change), the stale plan is discarded
    and the query is transparently re-optimized.

    INSERT statements may also carry ``?`` placeholders; they are
    substituted per execution (there is no plan to cache).
    """

    def __init__(self, db: Database, text: str, tokens: list, statement,
                 param_count: int,
                 config: Optional[OptimizerConfig] = None):
        self.db = db
        self.text = text
        self.tokens = tokens
        self.statement = statement
        self.param_count = param_count
        self.config = config
        self.is_query = isinstance(statement, _QUERY_STATEMENTS)
        if param_count and not self.is_query and not isinstance(
            statement, ast.InsertStmt
        ):
            raise ParameterError(
                "?-parameters are only supported in queries and INSERT "
                "VALUES, not %s" % type(statement).__name__
            )
        if self.is_query:
            # plan (or find) eagerly so prepare-time errors surface here
            with db._lock:
                db._resolve_plan(statement, tokens, config or db.config,
                                 QueryLogEntry(), use_cache=True,
                                 prepared=True)

    def __repr__(self) -> str:
        return "PreparedStatement(%r, %d param(s))" % (
            self.text.strip().splitlines()[0][:60], self.param_count,
        )

    @property
    def plan(self) -> Optional[PlanNode]:
        """The currently-cached plan for this query (None for DDL/DML,
        or if the cache entry was evicted)."""
        if not self.is_query:
            return None
        key = cache_key(self.tokens, self.config or self.db.config)
        entry = self.db.plan_cache.peek(key)
        return entry.plan if entry is not None else None

    def execute(self, params: Sequence = (),
                options: Optional[Options] = None) -> QueryResult:
        """Bind ``params`` (one value per ``?``, in order) and run —
        through the same statement path as ``db.sql``, so a prepared
        execution has the ad-hoc one's isolation, failover, tracing and
        logging. ``options`` layers over the database defaults."""
        params = tuple(params)
        if len(params) != self.param_count:
            raise ParameterError(
                "statement takes %d parameter(s), got %d"
                % (self.param_count, len(params))
            )
        opts = self.db._resolve_options(options)
        if self.is_query:
            return self.db._execute_statement(
                self.statement, self.text, self.tokens, self.config, opts,
                params=params)
        statement = self._substituted(params) if params else self.statement
        return self.db._execute_statement(statement, self.text,
                                          self.tokens, self.config, opts)

    def _substituted(self, params: tuple) -> ast.InsertStmt:
        """An InsertStmt copy with every placeholder replaced by its
        bound value (validated against the supported parameter types)."""
        rows = []
        for row in self.statement.rows:
            out = []
            for value in row:
                if isinstance(value, ast.AstParameter):
                    bound = params[value.index]
                    if not isinstance(bound, PARAMETER_TYPES):
                        raise ParameterError(
                            "parameter ?%d: unsupported value type %s"
                            % (value.index + 1, type(bound).__name__)
                        )
                    out.append(bound)
                else:
                    out.append(value)
            rows.append(out)
        return ast.InsertStmt(self.statement.table, rows)


def _ddl_result(kind: str) -> QueryResult:
    return QueryResult(rows=[], schema=Schema(()), statement_kind=kind)


def _count_result(kind: str, column: str, count: int,
                  record: QueryLogEntry) -> QueryResult:
    """The one-row result of a statement that reports how many rows it
    wrote; the record's ``rows`` is that count."""
    record.rows = count
    return QueryResult(rows=[(count,)],
                       schema=Schema([Column(column, DataType.INT)]),
                       statement_kind=kind)
