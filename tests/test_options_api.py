"""The public API: Options, connect(), and the facade surface.

Covers the resolution chain (BUILTIN <- db.defaults <- per-call
options), configure()/session() scoping, the ``TypeError`` every
pre-Options spelling now raises, and the stable ``repro`` facade.
"""

import os
import re
import signal
import subprocess
import sys
import warnings

import pytest

import repro
from repro import Database, DataType, Options
from repro.executor.vectorize import Batch
from repro.options import BUILTIN


def _tiny_db():
    db = Database()
    db.create_table("T", [("a", DataType.INT), ("b", DataType.INT)])
    db.insert("T", [(i, i * 2) for i in range(50)])
    db.analyze()
    return db


Q = "SELECT T.a FROM T WHERE T.b > 10"


# ------------------------------------------------------------- Options value


class TestOptions:
    def test_defaults_are_inherit(self):
        opts = Options()
        assert all(v is None for v in opts.as_dict().values())

    def test_resolved_fills_builtins(self):
        resolved = Options().resolved()
        assert resolved.use_cache is True
        assert resolved.timeout is None  # genuinely "unlimited"

    def test_merged_layers_non_none_fields(self):
        base = Options(slow_query_seconds=2.0, timeout=5.0)
        over = Options(timeout=1.0, use_cache=True)
        merged = base.merged(over)
        assert merged.slow_query_seconds == 2.0
        assert merged.timeout == 1.0
        assert merged.use_cache is True
        assert base.merged(None) is base

    def test_validation(self):
        with pytest.raises(ValueError):
            Options(durability="warp")
        with pytest.raises(ValueError):
            Options(timeout=0)
        with pytest.raises(ValueError):
            Options(memory_budget_bytes=-1)

    def test_immutable(self):
        with pytest.raises(Exception):
            Options().timeout = 1.0

    def test_builtin_is_fully_specified_for_flags(self):
        assert BUILTIN.use_cache is True
        assert BUILTIN.slow_query_seconds == 0.25


# --------------------------------------------------- configure() / session()


class TestDatabaseDefaults:
    def test_configure_sets_defaults(self):
        db = _tiny_db()
        db.configure(use_cache=False, slow_query_seconds=1e-9)
        assert db.defaults.use_cache is False
        db.sql(Q)
        assert db.querylog.recent(1)[0].slow  # default threshold applied

    def test_configure_rejects_unknown_keys(self):
        db = _tiny_db()
        with pytest.raises(TypeError):
            db.configure(warp_factor=9)

    def test_session_scopes_and_restores(self):
        db = _tiny_db()
        db.configure(use_cache=True)
        with db.session(use_cache=False, timeout=5.0) as scoped:
            assert scoped is db
            assert db.defaults.use_cache is False
            assert db.defaults.timeout == 5.0
        assert db.defaults.use_cache is True
        assert db.defaults.timeout is None

    def test_session_restores_on_error(self):
        db = _tiny_db()
        with pytest.raises(RuntimeError):
            with db.session(timeout=5.0):
                raise RuntimeError("boom")
        assert db.defaults.timeout is None

    def test_per_call_options_beat_defaults(self):
        db = _tiny_db()
        db.configure(slow_query_seconds=1e-9)
        db.sql(Q, options=Options(slow_query_seconds=60.0))
        assert not db.querylog.recent(1)[0].slow


def test_server_started_with_no_flags_runs_the_vector_engine():
    """``python -m repro serve`` with no flags answers queries, reports
    no engine to choose in ``status``, and exits cleanly on SIGINT."""
    from repro.server import Client

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        banner = server.stderr.readline()
        match = re.search(r"listening on (\S+):(\d+)", banner)
        assert match, banner
        with Client(match.group(1), int(match.group(2))) as client:
            assert "engine" not in client.status()
            client.sql("CREATE TABLE t (x INT)")
            client.sql("INSERT INTO t VALUES (1), (2)")
            assert client.sql("SELECT x FROM t").rows == [(1,), (2,)]
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=10)
        server.stderr.close()
    assert server.returncode == 0


def test_serve_stops_on_sigint_with_a_transaction_open(tmp_path):
    """SIGINT lands on the thread that runs the engine. The server still
    exits 0 and says so, the committed row is in the WAL, and the open
    transaction's row is not."""
    from repro.server import Client

    wal = str(tmp_path / "serve.wal")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--durability", "commit", "--wal", wal], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    clients = []
    try:
        match = re.search(r"listening on (\S+):(\d+)",
                          server.stderr.readline())
        assert match
        address = match.group(1), int(match.group(2))
        committer, holder = Client(*address), Client(*address)
        clients = [committer, holder]
        committer.sql("CREATE TABLE t (x INT)")
        committer.sql("INSERT INTO t VALUES (1)")
        holder.sql("BEGIN")
        holder.sql("INSERT INTO t VALUES (2)")
        server.send_signal(signal.SIGINT)
        _, stderr = server.communicate(timeout=10)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate(timeout=10)
        for client in clients:
            client.close()
    assert server.returncode == 0
    assert "server stopped" in stderr
    db, _ = repro.recover(wal)
    assert db.sql("SELECT x FROM t").rows == [(1,)]


# ------------------------------------------------------------------ connect()


class TestConnect:
    def test_local_connect_with_options(self):
        db = repro.connect(timeout=5.0, use_cache=True)
        assert isinstance(db, Database)
        assert db.defaults.timeout == 5.0
        assert db.defaults.use_cache is True

    def test_distributed_connect(self):
        db = repro.connect(sites=["tokyo", "paris"])
        from repro.distributed import DistributedDatabase
        assert isinstance(db, DistributedDatabase)
        assert db.sites == ["paris", "tokyo"]

    def test_plan_cache_size_passthrough(self):
        local = repro.connect(plan_cache_size=7)
        assert local.plan_cache.capacity == 7
        dist = repro.connect(sites=["a"], plan_cache_size=7)
        assert dist.plan_cache.capacity == 7

    def test_facade_exports_resolve(self):
        missing = [name for name in repro.__all__
                   if not hasattr(repro, name)]
        assert missing == []
        # the redesigned surface is part of the contract
        for name in ("connect", "Options", "QueryResult", "ReproError",
                     "ExecutionError", "QueryTimeout", "ResourceExhausted"):
            assert name in repro.__all__


# ------------------------------------------------------- removed spellings


class TestLegacyKwargShim:
    """The pre-``Options`` keywords, the engine selector and the trace
    switch are gone, not deprecated: each old spelling is an ordinary
    ``TypeError``."""

    def test_old_spellings_raise_type_error(self):
        db = _tiny_db()
        for call in (
            lambda: db.sql(Q, trace=True),
            lambda: db.sql(Q, use_cache=True),
            lambda: db.sql(Q, timeout=1.0),
            lambda: db.sql(Q, memory_budget_bytes=1 << 20),
            lambda: db.execute_script(Q + ";", use_cache=True),
            lambda: db.execute_script(Q + ";", timeout=1.0),
            lambda: Batch(rows=[(1, "x")]),
            lambda: repro.connect(engine="vector"),
            lambda: Options(trace=True),
            lambda: db.configure(trace=True),
            lambda: repro.connect(trace=True),
        ):
            with pytest.raises(TypeError):
                call()
        assert not hasattr(repro, "ENGINES")

    def test_options_path_is_warning_free(self):
        db = _tiny_db()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db.sql(Q, options=Options(use_cache=True))
            db.configure(use_cache=True)
            db.sql(Q)


# ------------------------------------------------------ no engine to choose


class TestEngineOption:
    def test_unknown_engine_rejected_at_options(self):
        with pytest.raises(TypeError):
            Options(engine="gpu")

    def test_run_plan_rejects_unknown_engine(self):
        db = _tiny_db()
        plan, planner = db.plan(Q)
        with pytest.raises(TypeError):
            db.run_plan(plan, planner.metrics, engine="gpu")
