"""An interactive SQL shell for the engine.

Run with ``python -m repro``. Statements end with ``;``; meta-commands
start with a backslash:

    \\d             list tables and views
    \\d NAME        describe one relation
    \\e SELECT ...  EXPLAIN the query
    \\ea SELECT ... EXPLAIN ANALYZE the query
    \\explain [search] SELECT ...
                   EXPLAIN; with ``search``, also dump the optimizer's
                   DP search trace (every candidate, cost delta, and
                   pruning verdict, plus parametric-coster anchors)
    \\whynot METHOD SELECT ...
                   why the chosen plan does not use METHOD (e.g.
                   filter_join, bloom, hash, magic, fixpoint): the
                   nearest rejected candidate and the ledger terms
                   that lost it
    \\config        show the optimizer configuration
    \\set           show the active execution option set (timeout,
                    plan cache, ...) — the database's repro.Options
                    defaults
    \\set KEY VAL   change an optimizer switch (e.g. \\set enable_filter_join off)
    \\cache         show plan-cache counters (hits/misses/invalidations)
                    and the restriction-memo line
    \\cache clear   empty the plan cache and reset its counters (which
                    are plan_cache_events_total in \\metrics)
    \\cache size N  resize the plan cache (0 disables it)
    \\timeout S     set a per-statement deadline in seconds (off = none)
    \\faults ...    configure network fault injection (\\faults help)
    \\metrics       dump the database's counters, gauges and histograms
    \\drift         estimate-drift report (worst-misestimated operators)
    \\slow [N]      the N slowest of the recorded statements that
                    crossed slow_query_seconds
    \\sessions      one line per live session: bound flag, open txn,
                    statement count
    \\adaptive [on|off]
                   drift-triggered adaptive maintenance: toggle the
                   policy and show the actions
                   taken so far (table, before/after q-error)
    \\log [on|off|clear]
                   the structured query event log: toggle recording or
                   show the most recent events (JSON-lines via the API:
                   db.event_log.to_jsonl())
    \\txn           transaction status: open transaction, aborted flag,
                    savepoints, durability level, WAL counters
    \\txn abort-on-error on|off
                   "on" (default, PostgreSQL semantics): an error inside
                   BEGIN...COMMIT aborts the transaction until ROLLBACK;
                   "off": the failed statement is undone but the
                   transaction stays usable (psql ON_ERROR_ROLLBACK)
    \\q             quit

The execution state lives in one place — the database's default
:class:`repro.Options` — and ``\\set`` (no arguments) shows it;
``\\timeout`` is an alias that updates a single field of that option
set.

Syntax errors point at the offending token with a caret line, and a
``Ctrl-C`` mid-statement abandons the buffered input without killing
the shell (the database stays consistent — statements are atomic).

Statements executed in the shell go through the plan cache, so
re-running a query skips parse/bind/optimize; ``\\cache`` shows the
effect live.

The shell is also scriptable: pipe SQL on stdin.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from typing import Iterable, Optional, TextIO

from .database import Database, QueryResult
from .errors import ReproError, SqlSyntaxError
from .harness.report import TextTable
from .obs.metrics import render_metrics
from .options import OPTION_FIELDS, Options

PROMPT = "repro> "
CONTINUATION = "  ...> "

_BOOL_WORDS = {"on": True, "true": True, "1": True,
               "off": False, "false": False, "0": False}


#: transaction-control results echo what actually happened — COMMIT of
#: an aborted transaction performs a rollback and says ROLLBACK
_TXN_KIND_WORDS = {"begin": "BEGIN", "commit": "COMMIT",
                   "rollback": "ROLLBACK", "savepoint": "SAVEPOINT",
                   "release": "RELEASE"}


def format_result(result: QueryResult, max_rows: int = 50) -> str:
    """Render a query result as an aligned table with a cost footer."""
    if result.statement_kind == "explain":
        return "\n".join(row[0] for row in result.rows)
    if result.statement_kind in _TXN_KIND_WORDS:
        return _TXN_KIND_WORDS[result.statement_kind]
    if result.statement_kind != "select":
        if result.statement_kind == "insert" and result.rows:
            return "INSERT: %d row(s)" % result.rows[0][0]
        return "OK (%s)" % result.statement_kind
    table = TextTable(result.columns or ["(no columns)"])
    for row in result.rows[:max_rows]:
        table.add_row(*row)
    lines = [table.render()]
    if len(result.rows) > max_rows:
        lines.append("... (%d more rows)" % (len(result.rows) - max_rows))
    lines.append("(%d row%s, cost %.1f)" % (
        len(result.rows), "" if len(result.rows) == 1 else "s",
        result.measured_cost(),
    ))
    return "\n".join(lines)


def caret_lines(text: str, exc: SqlSyntaxError) -> list:
    """The source line holding a syntax error plus a caret pointer.

    Uses the ``position``/``line`` fields every :class:`SqlSyntaxError`
    carries; returns an empty list when no position is available.
    """
    position = getattr(exc, "position", -1)
    if position is None or position < 0 or position > len(text):
        return []
    position = min(position, len(text))
    line_start = text.rfind("\n", 0, position) + 1
    line_end = text.find("\n", position)
    if line_end == -1:
        line_end = len(text)
    source_line = text[line_start:line_end]
    if not source_line.strip():
        return []
    column = position - line_start
    return [source_line, " " * column + "^"]


class Shell:
    """Stateful REPL over one Database."""

    def __init__(self, db: Optional[Database] = None,
                 out: TextIO = sys.stdout):
        self.db = db or Database()
        self.out = out
        self.done = False

    # The shell's execution state IS the database's default option set;
    # \timeout is a view onto a single field of it.
    @property
    def timeout(self) -> Optional[float]:
        return self.db.defaults.timeout

    @timeout.setter
    def timeout(self, value: Optional[float]) -> None:
        self.db.defaults = self.db.defaults.replace(timeout=value)

    def write(self, text: str) -> None:
        self.out.write(text + "\n")

    # ------------------------------------------------------------- commands

    def handle_meta(self, line: str) -> None:
        try:
            self._dispatch_meta(line)
        except ReproError as exc:
            self.write("error: %s" % exc)

    def _dispatch_meta(self, line: str) -> None:
        parts = line.split(None, 1)
        command = parts[0]
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in ("\\q", "\\quit", "\\exit"):
            self.done = True
            return
        if command == "\\d":
            if argument:
                self._describe(argument)
            else:
                self._list_relations()
            return
        if command == "\\e":
            self.write(self.db.explain(argument))
            return
        if command == "\\ea":
            self.write(self.db.explain_analyze(argument))
            return
        if command == "\\explain":
            self._explain_command(argument)
            return
        if command == "\\whynot":
            self._whynot_command(argument)
            return
        if command == "\\log":
            self._log_command(argument)
            return
        if command == "\\config":
            config = self.db.config
            for key in sorted(f.name for f in fields(config)):
                self.write("  %-32s %r" % (key, getattr(config, key)))
            return
        if command == "\\set":
            self._set_config(argument)
            return
        if command == "\\cache":
            self._cache_command(argument)
            return
        if command == "\\timeout":
            self._timeout_command(argument)
            return
        if command == "\\faults":
            self._faults_command(argument)
            return
        if command == "\\metrics":
            self.write(render_metrics(self.db.metrics()))
            if self.db.network is not None:
                self.write("network:")
                for key, value in self.db.network.stats.as_dict().items():
                    self.write("  %-18s %s" % (key, value))
            return
        if command == "\\drift":
            self.write(self.db.drift_report().render())
            return
        if command == "\\slow":
            self._slow_command(argument)
            return
        if command == "\\sessions":
            self._sessions_command()
            return
        if command == "\\adaptive":
            self._adaptive_command(argument)
            return
        if command == "\\txn":
            self._txn_command(argument)
            return
        self.write("unknown command %r (try \\d, \\e, \\ea, \\explain, "
                   "\\whynot, \\config, \\set, \\cache, "
                   "\\timeout, \\faults, \\metrics, \\drift, \\slow, "
                   "\\sessions, \\adaptive, \\log, \\txn, \\q)"
                   % command)

    def _txn_command(self, argument: str) -> None:
        txn = self.db.txn
        parts = argument.split()
        if parts:
            if (len(parts) == 2 and parts[0] == "abort-on-error"
                    and parts[1].lower() in _BOOL_WORDS):
                on = _BOOL_WORDS[parts[1].lower()]
                txn.on_error = "abort" if on else "continue"
                self.write("abort-on-error %s" % ("on" if on else "off"))
            else:
                self.write("usage: \\txn [abort-on-error on|off]")
            return
        status = txn.status()
        if not status["active"]:
            self.write("no transaction in progress (autocommit)")
        elif status["aborted"]:
            self.write("transaction %s ABORTED — ROLLBACK to recover"
                       % status["txn"])
        else:
            self.write("in transaction %s (%d statement(s))"
                       % (status["txn"], status["statements"]))
        if status["savepoints"]:
            self.write("  savepoints: %s"
                       % ", ".join(status["savepoints"]))
        self.write("  on_error   = %s" % status["on_error"])
        self.write("  durability = %s" % status["durability"])
        if "wal" in status:
            self.write("  wal        = %s" % (
                "  ".join("%s=%s" % (key, value)
                          for key, value in status["wal"].items())))

    def _slow_command(self, argument: str) -> None:
        if argument:
            try:
                limit = int(argument)
                if limit <= 0:
                    raise ValueError
            except ValueError:
                self.write("usage: \\slow [N] (positive row count)")
                return
        else:
            limit = 10
        self.write(self.db.querylog.render(limit))

    def _sessions_command(self) -> None:
        overview = self.db.txn.sessions_overview()
        table = TextTable(["session", "bound", "txn", "aborted",
                           "statements"])
        for entry in overview:
            table.add_row(
                entry["session"],
                "*" if entry["bound"] else "",
                entry["txn"] or "-",
                "yes" if entry["aborted"] else "",
                entry["statements"],
            )
        self.write(table.render())

    def _adaptive_command(self, argument: str) -> None:
        if argument:
            value = _BOOL_WORDS.get(argument.lower())
            if value is None:
                self.write("usage: \\adaptive [on | off]")
                return
            self.db.configure(adaptive=value)
            self.write("adaptive maintenance %s"
                       % ("on (queries trigger re-analyze)"
                          if value else "off"))
            return
        policy = self.db.defaults.resolved().adaptive
        enabled = bool(policy and policy.enabled)
        self.write("adaptive maintenance is %s"
                   % ("on" if enabled else "off"))
        if enabled:
            self.write("  threshold=%g min_samples=%d cooldown=%d"
                       % (policy.qerror_threshold, policy.min_samples,
                          policy.cooldown_queries))
        self.write(self.db.adaptive.render())

    def _explain_command(self, argument: str) -> None:
        if not argument:
            self.write("usage: \\explain [search] SELECT ...")
            return
        mode = "plan"
        first, _, rest = argument.partition(" ")
        if first.lower() == "search":
            mode, argument = "search", rest.strip()
            if not argument:
                self.write("usage: \\explain search SELECT ...")
                return
        self.write(self.db.explain(argument, mode=mode))

    def _whynot_command(self, argument: str) -> None:
        method, _, sql = argument.partition(" ")
        sql = sql.strip()
        if not method or not sql:
            self.write("usage: \\whynot METHOD SELECT ... "
                       "(e.g. \\whynot filter_join SELECT ...)")
            return
        self.write(self.db.why_not(sql, method).render())

    def _log_command(self, argument: str) -> None:
        log = self.db.event_log
        if not argument:
            self.write(log.render())
            return
        word = argument.lower()
        if word == "clear":
            log.clear()
            self.write("event log cleared")
            return
        value = _BOOL_WORDS.get(word)
        if value is None:
            self.write("usage: \\log [on | off | clear]")
            return
        if value:
            log.enable()
        else:
            log.disable()
        self.write("event log %s" % ("on" if value else "off"))

    def _show_options(self) -> None:
        """The active execution option set: the database defaults with
        the built-in fallbacks resolved in."""
        resolved = self.db.defaults.resolved()
        self.write("active options:")
        for name in OPTION_FIELDS:
            self.write("  %-22s %r" % (name, getattr(resolved, name)))

    def _timeout_command(self, argument: str) -> None:
        if not argument:
            if self.timeout is None:
                self.write("no statement timeout set")
            else:
                self.write("statement timeout = %.3fs" % self.timeout)
            return
        if argument.lower() in ("off", "none"):
            self.timeout = None
            self.write("statement timeout cleared")
            return
        try:
            seconds = float(argument)
            if seconds <= 0:
                raise ValueError
        except ValueError:
            self.write("usage: \\timeout SECONDS (positive) | off")
            return
        self.timeout = seconds
        self.write("statement timeout = %.3fs" % seconds)

    def _faults_command(self, argument: str) -> None:
        from .distributed.network import FaultPlan, SimulatedNetwork

        parts = argument.split()
        if parts and parts[0] == "help":
            self.write("usage: \\faults                 show status")
            self.write("       \\faults off             disable injection")
            self.write("       \\faults KEY VALUE ...   configure, keys:")
            self.write("         drop R | truncate R | latency R [SECONDS]")
            self.write("         seed N | down SITE[,SITE...]")
            return
        if not parts:
            network = self.db.network
            if network is None or network.injector is None:
                self.write("fault injection off")
            else:
                plan = network.injector.plan
                self.write("fault injection on (seed %d):"
                           % network.injector.seed)
                for key, value in sorted(vars(plan).items()):
                    if value:
                        self.write("  %-18s %r" % (key, value))
            if network is not None:
                for key, value in network.stats.as_dict().items():
                    self.write("  %-18s %s" % (key, value))
            return
        if parts[0] == "off":
            if self.db.network is not None:
                self.db.network.set_fault_plan(None)
            self.write("fault injection off")
            return
        settings = {"seed": 0}
        fields = {"drop": "drop_rate", "truncate": "truncate_rate",
                  "latency": "latency_rate"}
        i = 0
        try:
            while i < len(parts):
                key = parts[i]
                if key in fields:
                    settings[fields[key]] = float(parts[i + 1])
                    i += 2
                    if (key == "latency" and i < len(parts)
                            and parts[i] not in fields
                            and parts[i] not in ("seed", "down")):
                        settings["latency_seconds"] = float(parts[i])
                        i += 1
                elif key == "seed":
                    settings["seed"] = int(parts[i + 1])
                    i += 2
                elif key == "down":
                    settings["down_sites"] = frozenset(
                        parts[i + 1].split(","))
                    i += 2
                else:
                    raise ValueError("unknown key %r" % key)
            seed = settings.pop("seed")
            plan = FaultPlan(**settings)
        except (IndexError, ValueError, TypeError) as exc:
            self.write("rejected: %s (try \\faults help)" % exc)
            return
        if self.db.network is None:
            self.db.network = SimulatedNetwork()
        self.db.network.set_fault_plan(plan, seed)
        self.write("fault injection on (seed %d)" % seed)

    def _cache_command(self, argument: str) -> None:
        parts = argument.split()
        if not parts:
            for key, value in self.db.cache_stats().items():
                if isinstance(value, float):
                    value = "%.2f" % value
                self.write("  %-16s %s" % (key, value))
            return
        if parts[0] == "clear":
            self.db.plan_cache.clear()
            self.write("plan cache cleared")
            return
        if parts[0] == "size" and len(parts) == 2:
            try:
                self.db.plan_cache.resize(int(parts[1]))
            except ValueError as exc:
                self.write("rejected: %s" % exc)
                return
            self.write("plan cache capacity = %d" % self.db.plan_cache.capacity)
            return
        self.write("usage: \\cache [clear | size N]")

    def _list_relations(self) -> None:
        table = TextTable(["name", "kind", "rows", "columns"])
        for t in self.db.catalog.tables():
            table.add_row(t.name, "table", t.num_rows,
                          ", ".join(t.schema.names()))
        for view in self.db.catalog.views():
            table.add_row(view.name, "view", "-",
                          "(defined by query)")
        self.write(table.render())

    def _describe(self, name: str) -> None:
        if self.db.catalog.has_table(name):
            t = self.db.catalog.table(name)
            table = TextTable(["column", "type", "indexed"])
            for col in t.schema:
                index = t.index_on(col.name)
                marker = index.kind if index else ""
                if t.clustered_on == col.name:
                    marker = (marker + " clustered").strip()
                table.add_row(col.name, col.dtype.value, marker)
            self.write(table.render())
            self.write("%d rows, %d pages" % (t.num_rows, t.num_pages))
            return
        if self.db.catalog.has_view(name):
            view = self.db.catalog.view(name)
            self.write("view %s:" % view.name)
            self.write(view.sql_text)
            return
        self.write("no relation named %r" % name)

    def _set_config(self, argument: str) -> None:
        parts = argument.split()
        if not parts:
            self._show_options()
            return
        if len(parts) != 2:
            self.write("usage: \\set KEY VALUE")
            return
        key, raw = parts
        if not hasattr(self.db.config, key):
            self.write("unknown config key %r" % key)
            return
        current = getattr(self.db.config, key)
        if isinstance(current, bool) or raw.lower() in _BOOL_WORDS:
            value = _BOOL_WORDS.get(raw.lower())
            if value is None:
                self.write("expected on/off for %r" % key)
                return
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = None if raw.lower() == "none" else raw
        try:
            candidate = self.db.config.replace(**{key: value})
            candidate.validate()
        except (ValueError, TypeError) as exc:
            self.write("rejected: %s" % exc)
            return
        self.db.config = candidate
        self.write("%s = %r" % (key, value))

    # ----------------------------------------------------------------- loop

    def execute(self, text: str) -> None:
        try:
            for result in self.db.execute_script(
                    text, options=Options(use_cache=True)):
                self.write(format_result(result))
        except SqlSyntaxError as exc:
            self.write("error: %s" % exc)
            for line in caret_lines(text, exc):
                self.write(line)
        except ReproError as exc:
            self.write("error: %s" % exc)

    def run(self, lines: Iterable[str],
            interactive: bool = False) -> None:
        buffer: list = []
        if interactive:
            self.out.write(PROMPT)
            self.out.flush()
        for raw in lines:
            line = raw.rstrip("\n")
            stripped = line.strip()
            try:
                if not buffer and stripped.startswith("\\"):
                    self.handle_meta(stripped)
                    if self.done:
                        return
                elif stripped:
                    buffer.append(line)
                    if stripped.endswith(";"):
                        self.execute("\n".join(buffer))
                        buffer = []
            except KeyboardInterrupt:
                # abandon the buffered statement, keep the shell alive;
                # statements are atomic, so the database is consistent.
                # Inside BEGIN...COMMIT the interrupt aborted the
                # transaction (like any statement error) — say so.
                buffer = []
                status = self.db.txn.status()
                if status["aborted"]:
                    self.write("^C — statement abandoned; transaction "
                               "%s aborted (ROLLBACK to recover)"
                               % status["txn"])
                else:
                    self.write("^C — statement abandoned")
            if interactive:
                self.out.write(CONTINUATION if buffer else PROMPT)
                self.out.flush()
        if buffer:
            self.execute("\n".join(buffer))


def main(argv=None) -> int:
    shell = Shell()
    interactive = sys.stdin.isatty()
    if interactive:
        shell.write("repro SQL shell — \\q to quit, \\d for relations")
    while True:
        try:
            shell.run(sys.stdin, interactive=interactive)
            break
        except KeyboardInterrupt:
            # Ctrl-C at the prompt (outside execute): stay alive when
            # interactive, exit cleanly when scripted
            shell.write("^C")
            if not interactive or shell.done:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
