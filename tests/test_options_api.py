"""The redesigned public API: Options, connect(), and the legacy-kwarg
deprecation shim.

Covers the resolution chain (BUILTIN <- db.defaults <- per-call options
<- legacy kwargs), configure()/session() scoping, the once-per-call-site
DeprecationWarning, and the stable ``repro`` facade surface.
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
from repro.options import BUILTIN, warn_legacy_kwargs


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
        assert resolved.trace is False
        assert resolved.use_cache is False
        assert resolved.engine == "vector"
        assert resolved.timeout is None  # genuinely "unlimited"

    def test_merged_layers_non_none_fields(self):
        base = Options(trace=True, timeout=5.0)
        over = Options(timeout=1.0, engine="vector")
        merged = base.merged(over)
        assert merged.trace is True
        assert merged.timeout == 1.0
        assert merged.engine == "vector"
        assert base.merged(None) is base

    def test_validation(self):
        with pytest.raises(ValueError):
            Options(engine="warp")
        with pytest.raises(ValueError):
            Options(timeout=0)
        with pytest.raises(ValueError):
            Options(memory_budget_bytes=-1)

    def test_immutable(self):
        with pytest.raises(Exception):
            Options().trace = True

    def test_builtin_is_fully_specified_for_flags(self):
        assert BUILTIN.trace is False
        assert BUILTIN.use_cache is False
        assert BUILTIN.engine == "vector"


# --------------------------------------------------- configure() / session()


class TestDatabaseDefaults:
    def test_configure_sets_defaults(self):
        db = _tiny_db()
        db.configure(engine="vector", trace=True)
        assert db.defaults.engine == "vector"
        result = db.sql(Q)
        assert result.trace is not None  # default trace applied

    def test_configure_rejects_unknown_keys(self):
        db = _tiny_db()
        with pytest.raises(TypeError):
            db.configure(warp_factor=9)

    def test_session_scopes_and_restores(self):
        db = _tiny_db()
        db.configure(engine="vector")
        with db.session(engine="iterator", trace=True) as scoped:
            assert scoped is db
            assert db.defaults.engine == "iterator"
            assert db.defaults.trace is True
        assert db.defaults.engine == "vector"
        assert db.defaults.trace is None

    def test_session_restores_on_error(self):
        db = _tiny_db()
        with pytest.raises(RuntimeError):
            with db.session(trace=True):
                raise RuntimeError("boom")
        assert db.defaults.trace is None

    def test_per_call_options_beat_defaults(self):
        db = _tiny_db()
        db.configure(trace=True)
        result = db.sql(Q, options=Options(trace=False))
        assert result.trace is None

    def test_legacy_property_views(self):
        db = _tiny_db()
        db.tracing = True
        assert db.defaults.trace is True
        db.default_timeout = 3.5
        assert db.defaults.timeout == 3.5
        db.tracing = False
        db.default_timeout = None
        assert db.defaults.timeout is None


def test_server_started_with_no_flags_runs_the_vector_engine():
    """``python -m repro serve`` takes its engine from BUILTIN and says
    so in ``status``."""
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
            assert client.status()["engine"] == "vector"
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=10)
        server.stderr.close()
    assert server.returncode == 0


# ------------------------------------------------------------------ connect()


class TestConnect:
    def test_local_connect_with_options(self):
        db = repro.connect(engine="vector", use_cache=True)
        assert isinstance(db, Database)
        assert db.defaults.engine == "vector"
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


# --------------------------------------------------------- deprecation shim


class TestLegacyKwargShim:
    def test_legacy_kwargs_still_bind(self):
        db = _tiny_db()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            traced = db.sql(Q, trace=True)
            cached = db.sql(Q, use_cache=True)
            warm = db.sql(Q, use_cache=True)
        assert traced.trace is not None
        assert cached.cached_plan is False
        assert warm.cached_plan is True

    def test_legacy_kwargs_warn(self):
        db = _tiny_db()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            db.sql(Q, trace=True)
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        assert "trace=" in str(caught[0].message)
        assert "Options" in str(caught[0].message)

    def test_warns_once_per_call_site(self):
        db = _tiny_db()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(5):
                db.sql(Q, use_cache=True)  # one site, five calls
        assert len(caught) == 1

    def test_distinct_sites_warn_separately(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warn_legacy_kwargs(["timeout"], stacklevel=2)
            warn_legacy_kwargs(["timeout"], stacklevel=2)
        # distinct lines in this file -> two warnings
        assert len(caught) == 2

    def test_options_path_is_warning_free(self):
        db = _tiny_db()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db.sql(Q, options=Options(trace=True, use_cache=True))
            db.configure(engine="vector")
            db.sql(Q)

    def test_legacy_and_options_compose(self):
        """Per-call options win over legacy kwargs, which win over
        defaults."""
        db = _tiny_db()
        db.configure(trace=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            result = db.sql(Q, trace=True, options=Options(trace=False))
        assert result.trace is None

    def test_execute_script_shim(self):
        db = _tiny_db()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = db.execute_script(
                "SELECT T.a FROM T; SELECT T.b FROM T;", use_cache=True)
        assert len(results) == 2
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)


# ------------------------------------------------------------ engine option


class TestEngineOption:
    def test_unknown_engine_rejected_at_options(self):
        with pytest.raises(ValueError):
            Options(engine="gpu")

    def test_run_plan_rejects_unknown_engine(self):
        from repro.errors import PlanError
        db = _tiny_db()
        plan, planner = db.plan(Q)
        with pytest.raises(PlanError):
            db.run_plan(plan, planner.metrics, engine="gpu")

    def test_engine_default_applies_to_sql(self):
        db = _tiny_db()
        base = db.sql(Q)
        db.configure(engine="vector")
        vec = db.sql(Q)
        assert vec.rows == base.rows
        assert vec.ledger.as_dict() == base.ledger.as_dict()
