"""Tests for the interactive SQL shell."""

import io

import pytest

from repro import Database, DataType
from repro.shell import Shell, format_result


def run_shell(script: str, db=None) -> str:
    out = io.StringIO()
    shell = Shell(db=db, out=out)
    shell.run(io.StringIO(script))
    return out.getvalue()


SETUP = """
CREATE TABLE T (a INT, b INT);
INSERT INTO T VALUES (1, 10), (2, 20), (3, 30);
"""


class TestShellStatements:
    def test_ddl_and_select(self):
        output = run_shell(SETUP + "SELECT a FROM T WHERE b > 15;\n")
        assert "OK (create table)" in output
        assert "INSERT: 3 row(s)" in output
        assert "(2 rows" in output

    def test_multiline_statement(self):
        output = run_shell(
            SETUP + "SELECT a\nFROM T\nWHERE b = 10;\n"
        )
        assert "(1 row," in output

    def test_error_reported_not_raised(self):
        output = run_shell("SELECT nope FROM missing;\n")
        assert "error:" in output

    def test_union_in_shell(self):
        output = run_shell(
            SETUP + "SELECT a FROM T UNION ALL SELECT a FROM T;\n"
        )
        assert "(6 rows" in output


class TestMetaCommands:
    def test_list_relations(self):
        output = run_shell(SETUP + "\\d\n")
        assert "T" in output and "table" in output

    def test_describe_table(self):
        output = run_shell(SETUP + "\\d T\n")
        assert "column" in output and "int" in output

    def test_describe_missing(self):
        output = run_shell("\\d Nope\n")
        assert "no relation" in output

    def test_explain(self):
        output = run_shell(SETUP + "\\e SELECT a FROM T\n")
        assert "SeqScan" in output

    def test_explain_analyze(self):
        output = run_shell(SETUP + "\\ea SELECT a FROM T\n")
        assert "measured cost" in output

    def test_set_boolean(self):
        db = Database()
        run_shell("\\set enable_filter_join off\n", db=db)
        assert db.config.enable_filter_join is False

    def test_set_integer(self):
        db = Database()
        run_shell("\\set memory_pages 64\n", db=db)
        assert db.config.memory_pages == 64

    def test_set_invalid_value_rejected(self):
        db = Database()
        output = run_shell("\\set parametric_classes 1\n", db=db)
        assert "rejected" in output
        assert db.config.parametric_classes != 1

    def test_set_unknown_key(self):
        output = run_shell("\\set no_such_key on\n")
        assert "unknown config key" in output

    def test_quit_stops_processing(self):
        output = run_shell("\\q\nSELECT 1;\n")
        assert "error" not in output

    def test_unknown_meta(self):
        output = run_shell("\\frobnicate\n")
        assert "unknown command" in output

    def test_cache_stats(self):
        output = run_shell(
            SETUP
            + "SELECT a FROM T;\nSELECT a FROM T;\nSELECT a FROM T;\n"
            "\\cache\n"
        )
        assert "hits" in output and "misses" in output
        # stored on its second miss, the repeated statement hit the cache
        assert "hits             1" in output

    def test_cache_clear_and_resize(self):
        output = run_shell("\\cache size 4\n\\cache clear\n\\cache\n")
        assert "plan cache capacity = 4" in output
        assert "plan cache cleared" in output
        assert "hits             0" in output

    def test_cache_clear_resets_plan_cache_events_total(self):
        """The metric is the cache's own counters, so one clear resets
        both views of them."""
        db = Database()
        output = run_shell(SETUP + "SELECT a FROM T;\nSELECT a FROM T;\n"
                           "SELECT a FROM T;\n\\metrics\n", db)
        assert "plan_cache_events_total" in output
        assert db.metrics()["plan_cache_events_total"]["by_label"] == \
            {"hit": 1, "miss": 2}
        output = run_shell("\\cache clear\n\\metrics\n", db)
        assert "plan_cache_events_total" not in output
        assert "plan_cache_events_total" not in db.metrics()
        assert db.cache_stats()["hits"] == db.cache_stats()["misses"] == 0
        db.sql("SELECT a FROM T")
        assert db.metrics()["plan_cache_events_total"]["by_label"] == \
            {"miss": 1}

    def test_cache_bad_size_rejected(self):
        output = run_shell("\\cache size lots\n")
        assert "rejected" in output


class TestFormatResult:
    def test_truncates_long_results(self):
        db = Database()
        db.sql("CREATE TABLE Big (x INT)")
        db.insert("Big", [(i,) for i in range(100)])
        result = db.sql("SELECT x FROM Big")
        text = format_result(result, max_rows=10)
        assert "90 more rows" in text


class TestSyntaxErrorCaret:
    def test_caret_points_at_offending_token(self):
        output = run_shell("SELECT a FRM T;\n")
        lines = output.splitlines()
        assert any("error:" in line for line in lines)
        # the source line is echoed with a caret underneath
        source_index = next(i for i, line in enumerate(lines)
                            if "SELECT a FRM T;" in line)
        caret = lines[source_index + 1]
        assert caret.strip() == "^"
        # the parser reads FRM as an alias and errors at the next
        # token — the caret lands exactly there
        assert lines[source_index][caret.index("^")] == "T"

    def test_caret_on_multiline_statement(self):
        output = run_shell("SELECT a\nFRM T;\n")
        lines = output.splitlines()
        source_index = next(i for i, line in enumerate(lines)
                            if line.strip() == "FRM T;")
        assert lines[source_index + 1].strip() == "^"

    def test_non_syntax_errors_have_no_caret(self):
        output = run_shell("SELECT nope FROM missing;\n")
        assert "error:" in output
        assert "^" not in output


class TestTimeoutCommand:
    def test_set_show_and_clear(self):
        output = run_shell("\\timeout 2.5\n\\timeout\n\\timeout off\n")
        assert output.count("statement timeout = 2.500s") == 2
        assert "statement timeout cleared" in output

    def test_rejects_garbage(self):
        output = run_shell("\\timeout -1\n\\timeout soon\n")
        assert output.count("usage:") == 2

    def test_timeout_applies_to_statements(self):
        from repro.distributed import DistributedDatabase, FaultPlan

        db = DistributedDatabase()
        db.create_table("R", [("x", DataType.INT)], site="east")
        db.insert("R", [(i,) for i in range(50)])
        db.analyze()
        db.set_fault_plan(FaultPlan(latency_rate=1.0,
                                    latency_seconds=30.0))
        output = run_shell("\\timeout 0.1\nSELECT x FROM R;\n", db=db)
        assert "error:" in output and "deadline" in output


class TestFaultsCommand:
    def test_status_when_off(self):
        output = run_shell("\\faults\n")
        assert "fault injection off" in output

    def test_configure_and_show(self):
        from repro.distributed import DistributedDatabase

        db = DistributedDatabase()
        output = run_shell(
            "\\faults drop 0.5 seed 7\n\\faults\n", db=db)
        assert "fault injection on (seed 7)" in output
        assert "drop_rate" in output
        assert db.network.injector is not None

    def test_off_clears_plan(self):
        from repro.distributed import DistributedDatabase

        db = DistributedDatabase()
        output = run_shell("\\faults drop 0.5\n\\faults off\n", db=db)
        assert "fault injection off" in output
        assert db.network.injector is None

    def test_help_and_bad_key(self):
        output = run_shell("\\faults help\n\\faults warp 0.5\n")
        assert "usage:" in output
        assert "rejected:" in output

    def test_creates_network_on_plain_database(self):
        db = Database()
        assert db.network is None
        run_shell("\\faults latency 1.0 0.5\n", db=db)
        assert db.network is not None
        assert db.network.injector.plan.latency_seconds == 0.5


class TestKeyboardInterrupt:
    def test_interrupt_mid_statement_keeps_shell_alive(self):
        out = io.StringIO()
        shell = Shell(out=out)
        original = shell.execute
        calls = []

        def flaky(text):
            if not calls:
                calls.append(text)
                raise KeyboardInterrupt
            return original(text)

        shell.execute = flaky
        shell.run(io.StringIO(
            "CREATE TABLE A (x INT);\nCREATE TABLE T (a INT);\n"))
        output = out.getvalue()
        assert "statement abandoned" in output
        # the shell went on to run the next statement
        assert "OK (create table)" in output

    def test_interrupt_clears_pending_buffer(self):
        out = io.StringIO()
        shell = Shell(out=out)

        class Interrupting:
            def __init__(self, lines):
                self.lines = iter(lines)
                self.sent = 0

            def __iter__(self):
                return self

            def __next__(self):
                return next(self.lines)

        shell.run(io.StringIO("CREATE TABLE T (a INT);\n"))
        # buffer a partial statement, then interrupt inside handle
        shell.execute = lambda text: (_ for _ in ()).throw(
            KeyboardInterrupt)
        shell.run(io.StringIO("SELECT a\nFROM T;\n"))
        assert "statement abandoned" in out.getvalue()


class TestObservabilityCommands:
    def test_metrics_renders_counters(self):
        output = run_shell(SETUP + "SELECT a FROM T;\n\\metrics\n")
        assert "queries_total" in output
        assert "{select}" in output
        assert "{create_table}" in output

    def test_trace_toggle_and_summary_line(self):
        output = run_shell(SETUP + "\\trace\n\\trace on\n"
                           "SELECT a FROM T WHERE b > 15;\n\\trace off\n")
        assert "tracing is off" in output
        assert "tracing on" in output
        assert "trace:" in output and "worst q-err" in output
        assert "tracing off" in output

    def test_trace_bad_argument(self):
        output = run_shell("\\trace sideways\n")
        assert "error" in output or "usage" in output

    def test_drift_empty_then_populated(self):
        output = run_shell(SETUP + "\\drift\n\\trace on\n"
                           "SELECT a FROM T;\n\\drift\n")
        assert "no traced queries" in output
        assert "estimate drift over the last" in output

    def test_explain_analyze_non_query_reports_inline(self):
        """\\ea of a DDL must print an error line, not kill the shell."""
        output = run_shell("\\ea CREATE TABLE X (a INT)\n\\d\n")
        assert "error: EXPLAIN ANALYZE requires a query" in output
        # the shell survived and ran the next command (\d header)
        assert "name  kind  rows" in output


class TestTxnShell:
    def test_txn_status_outside_txn(self):
        output = run_shell("\\txn\n")
        assert "no transaction in progress (autocommit)" in output
        assert "on_error" in output and "durability" in output

    def test_txn_control_words_echoed(self):
        output = run_shell(
            SETUP + "BEGIN;\nINSERT INTO T VALUES (4, 40);\n"
            "\\txn\nCOMMIT;\n"
        )
        assert "BEGIN" in output and "COMMIT" in output
        assert "in transaction t" in output

    def test_savepoint_and_release_words(self):
        output = run_shell(
            SETUP + "BEGIN;\nSAVEPOINT s1;\n\\txn\n"
            "RELEASE SAVEPOINT s1;\nROLLBACK;\n"
        )
        assert "SAVEPOINT" in output and "RELEASE" in output
        assert "savepoints: s1" in output

    def test_error_mid_txn_aborts_until_rollback(self):
        """PostgreSQL semantics in the shell: a typed error inside
        BEGIN...COMMIT aborts the transaction; every later statement is
        refused until ROLLBACK, after which the session works again."""
        output = run_shell(
            SETUP + "BEGIN;\nSELECT nope FROM missing;\n\\txn\n"
            "SELECT a FROM T;\nROLLBACK;\nSELECT a FROM T;\n"
        )
        assert "ABORTED — ROLLBACK to recover" in output
        # the SELECT before ROLLBACK was refused, the one after ran
        assert output.count("error:") == 2
        assert "(3 rows" in output

    def test_commit_of_aborted_txn_reports_rollback(self):
        output = run_shell(
            SETUP + "BEGIN;\nSELECT nope FROM missing;\nCOMMIT;\n\\txn\n"
        )
        # COMMIT of an aborted transaction rolls back and says so
        assert "ROLLBACK" in output
        assert "no transaction in progress" in output

    def test_abort_on_error_off_keeps_txn_usable(self):
        output = run_shell(
            SETUP + "\\txn abort-on-error off\nBEGIN;\n"
            "SELECT nope FROM missing;\nSELECT a FROM T;\nCOMMIT;\n"
        )
        assert "abort-on-error off" in output
        assert "(3 rows" in output

    def test_abort_on_error_usage_message(self):
        output = run_shell("\\txn abort-on-error maybe\n")
        assert "usage: \\txn" in output

    def test_ctrl_c_mid_txn_reports_aborted_transaction(self, monkeypatch):
        """Ctrl-C during a statement inside BEGIN...COMMIT aborts the
        transaction like any statement error; the shell says so and the
        session needs ROLLBACK to recover."""
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        out = io.StringIO()
        shell = Shell(db=db, out=out)

        real = db._dispatch_statement
        armed = {"on": False}

        def interruptible(*args, **kwargs):
            if armed["on"]:
                armed["on"] = False
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(db, "_dispatch_statement", interruptible)

        def source():
            yield "BEGIN;\n"
            armed["on"] = True
            yield "INSERT INTO T VALUES (1);\n"
            yield "\\txn\n"
            yield "ROLLBACK;\n"
            yield "\\txn\n"

        shell.run(source())
        output = out.getvalue()
        assert "^C — statement abandoned; transaction" in output
        assert "aborted (ROLLBACK to recover)" in output
        assert "ABORTED — ROLLBACK to recover" in output
        assert "no transaction in progress" in output

    def test_ctrl_c_outside_txn_plain_message(self, monkeypatch):
        db = Database()
        db.sql("CREATE TABLE T (a INT)")
        out = io.StringIO()
        shell = Shell(db=db, out=out)

        real = db._dispatch_statement
        armed = {"on": False}

        def interruptible(*args, **kwargs):
            if armed["on"]:
                armed["on"] = False
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(db, "_dispatch_statement", interruptible)

        def source():
            armed["on"] = True
            yield "INSERT INTO T VALUES (1);\n"

        shell.run(source())
        output = out.getvalue()
        assert "^C — statement abandoned" in output
        assert "transaction" not in output


class TestServingCommands:
    def test_slow_lists_only_what_crossed_the_threshold(self):
        db = Database()
        output = run_shell(
            SETUP + "\\slow\nSELECT a FROM T;\n\\slow\n", db=db)
        assert "no slow queries recorded" in output
        # every statement was recorded...
        assert db.querylog.recorded >= 1
        # ...but a fast query is not in the *slow* log
        assert "SELECT a FROM T" not in output.split("\\slow")[-1]

    def test_slow_shows_offenders_with_low_threshold(self):
        db = Database()
        db.configure(slow_query_seconds=1e-9)
        output = run_shell(SETUP + "\\slow\nSELECT a FROM T;\n\\slow\n",
                           db=db)
        assert "SELECT a FROM T" in output
        assert "kind" in output  # the slow-log header row

    def test_slow_bad_argument(self):
        assert "usage: \\slow" in run_shell("\\slow x\n")
        assert "usage: \\slow" in run_shell("\\slow 0\n")
        assert "usage: \\slow" in run_shell("\\slow -3\n")

    def test_sessions_lists_the_bound_session(self):
        output = run_shell(SETUP + "BEGIN;\n\\sessions\nROLLBACK;\n")
        assert "session" in output and "bound" in output
        assert "*" in output  # the shell's own session is bound

    def test_adaptive_toggle_and_status(self):
        db = Database()
        output = run_shell("\\adaptive\n\\adaptive on\n\\adaptive\n"
                           "\\adaptive off\n", db=db)
        assert "adaptive maintenance is off" in output
        assert "adaptive maintenance on" in output
        assert "adaptive maintenance is on" in output
        assert "threshold=" in output
        assert "no adaptive actions" in output
        assert not db.defaults.resolved().adaptive.enabled

    def test_adaptive_bad_argument(self):
        assert "usage: \\adaptive" in run_shell("\\adaptive maybe\n")
