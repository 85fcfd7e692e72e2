"""Tests for `?` placeholders in prepared statements.

Arity and type problems must surface as ExecutionError-family
exceptions (ParameterError), never as raw Python crashes; and the same
plan object must be reused across different parameter values (the
id-stable cache hit that makes preparation worth anything).
"""

import pytest

from repro import (
    Database,
    DataType,
    ExecutionError,
    OptimizerConfig,
    Options,
    ParameterError,
    ReproError,
    TransactionAborted,
)
from repro.obs.log import QUERY_EVENT_ORDER


@pytest.fixture
def db():
    db = Database()
    db.create_table("T", [("a", DataType.INT), ("b", DataType.INT),
                          ("s", DataType.STR)])
    db.insert("T", [(i, i * 10, "row%d" % i) for i in range(10)])
    db.analyze()
    return db


class TestArity:
    def test_too_few_parameters(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.a = ? AND T.b = ?")
        with pytest.raises(ParameterError, match="2 parameter"):
            handle.execute([1])

    def test_too_many_parameters(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.a = ?")
        with pytest.raises(ParameterError, match="got 3"):
            handle.execute([1, 2, 3])

    def test_parameterless_statement_rejects_values(self, db):
        handle = db.prepare("SELECT T.a FROM T")
        with pytest.raises(ParameterError):
            handle.execute([1])

    def test_parameter_errors_are_execution_errors(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.a = ?")
        with pytest.raises(ExecutionError):
            handle.execute([])

    def test_executing_parameterized_sql_without_prepare_fails_cleanly(
            self, db):
        # the plain (uncached) path binds the parameter but nothing
        # supplies a value: an ExecutionError, not a crash
        with pytest.raises(ExecutionError, match="not bound"):
            db.sql("SELECT T.a FROM T WHERE T.a = ?")

    def test_shell_cached_path_demands_prepare(self, db):
        with pytest.raises(ParameterError, match="prepare"):
            db.sql("SELECT T.a FROM T WHERE T.a = ?",
                   options=Options(use_cache=True))


class TestTypes:
    def test_unsupported_value_type_rejected(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.a = ?")
        with pytest.raises(ParameterError, match="unsupported value type"):
            handle.execute([object()])
        with pytest.raises(ParameterError):
            handle.execute([[1, 2]])

    def test_type_mismatch_in_comparison_is_execution_error(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.a < ?")
        with pytest.raises(ExecutionError, match="cannot compare"):
            handle.execute(["not a number"])

    def test_type_mismatch_in_arithmetic_is_execution_error(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.b + ? > 5")
        with pytest.raises(ExecutionError, match="cannot apply"):
            handle.execute(["oops"])

    def test_equality_across_types_is_just_false(self, db):
        # SQL-style: = against a different type matches nothing
        handle = db.prepare("SELECT T.a FROM T WHERE T.a = ?")
        assert handle.execute(["3"]).rows == []

    def test_null_parameter_uses_three_valued_logic(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.a = ?")
        assert handle.execute([None]).rows == []

    def test_string_parameter(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.s = ?")
        assert handle.execute(["row4"]).rows == [(4,)]

    def test_insert_parameter_type_mismatch(self, db):
        handle = db.prepare("INSERT INTO T VALUES (?, ?, ?)")
        with pytest.raises(ParameterError):
            handle.execute([1, 2, object()])


class TestPlanReuse:
    def test_same_plan_object_across_parameter_values(self, db):
        handle = db.prepare("SELECT T.a, T.b FROM T WHERE T.a = ?")
        plan_id = id(handle.plan)
        for value in (0, 3, 7, 9, 123):
            result = handle.execute([value])
            assert result.cached_plan is True
            assert id(result.plan) == plan_id
        assert db.cache_stats()["misses"] == 1

    def test_each_binding_gets_its_own_answer(self, db):
        handle = db.prepare("SELECT T.b FROM T WHERE T.a = ?")
        assert handle.execute([2]).rows == [(20,)]
        assert handle.execute([5]).rows == [(50,)]
        assert handle.execute([99]).rows == []

    def test_parameters_in_in_list(self, db):
        handle = db.prepare("SELECT T.a FROM T WHERE T.a IN (?, ?, 9)")
        assert sorted(handle.execute([1, 4]).rows) == [(1,), (4,), (9,)]
        assert sorted(handle.execute([0, 0]).rows) == [(0,), (9,)]

    def test_not_in_with_parameters(self, db):
        handle = db.prepare(
            "SELECT T.a FROM T WHERE T.a > 6 AND T.a NOT IN (?, ?)"
        )
        assert sorted(handle.execute([7, 9]).rows) == [(8,)]

    def test_parameters_in_select_list_and_arithmetic(self, db):
        handle = db.prepare("SELECT T.a + ? AS shifted FROM T WHERE T.a < 2")
        assert sorted(handle.execute([100]).rows) == [(100,), (101,)]
        assert sorted(handle.execute([0]).rows) == [(0,), (1,)]

    def test_parameters_in_having(self, db):
        handle = db.prepare(
            "SELECT T.a, COUNT(*) AS n FROM T GROUP BY T.a "
            "HAVING COUNT(*) > ?"
        )
        assert len(handle.execute([0]).rows) == 10
        assert handle.execute([1]).rows == []

    def test_prepared_insert_roundtrip(self, db):
        handle = db.prepare("INSERT INTO T VALUES (?, ?, ?)")
        handle.execute([100, 1000, "hundred"])
        handle.execute([101, 1010, "hundred-one"])
        rows = db.sql("SELECT T.a FROM T WHERE T.b >= 1000").rows
        assert sorted(rows) == [(100,), (101,)]

    def test_parameters_rejected_in_unsupported_statements(self, db):
        with pytest.raises(ParameterError, match="only supported"):
            db.prepare("CREATE TABLE C AS SELECT T.a FROM T WHERE T.a = ?")

    def test_per_config_plans_are_independent(self, db):
        no_fj = OptimizerConfig(enable_filter_join=False,
                                enable_bloom_filter=False)
        plain = db.prepare("SELECT T.a FROM T WHERE T.a = ?")
        forced = db.prepare("SELECT T.a FROM T WHERE T.a = ?",
                            config=no_fj)
        assert plain.plan is not forced.plan
        assert plain.execute([1]).rows == forced.execute([1]).rows


class TestSameStatementPath:
    """A prepared execution is an ordinary statement: refused in an
    aborted transaction, traceable, and recorded once everywhere."""

    Q = "SELECT T.a, T.b FROM T WHERE T.a < ?"

    def test_prepared_select_refused_in_aborted_transaction(self, db):
        handle = db.prepare(self.Q)
        db.sql("BEGIN")
        with pytest.raises(ReproError):
            db.sql("SELECT nope FROM T")
        with pytest.raises(TransactionAborted):
            handle.execute([5])
        db.sql("ROLLBACK")
        assert len(handle.execute([5]).rows) == 5

    def test_prepared_execution_is_traceable(self, db):
        handle = db.prepare(self.Q)
        result = handle.execute([4])
        assert result.trace is not None
        result.trace.reconcile(result.ledger)
        assert result.trace.phases["optimize"].extras["plan_cache"] \
            == "hit"
        assert result.ledger == handle.execute([4]).ledger
        assert not db.drift_report().empty

    def test_one_execution_is_recorded_once_everywhere(self, db):
        handle = db.prepare(self.Q)
        db.event_log.enable()
        recorded = db.querylog.recorded
        selects = db.metrics().get("queries_total", {}).get(
            "by_label", {}).get("select", 0)
        result = handle.execute([3])
        assert db.querylog.recorded == recorded + 1
        record = db.querylog.recent(1)[0]
        assert (record.kind, record.rows, record.plan_cache) == \
            ("select", 3, "hit")
        assert record.query_id == result.query_id
        assert db.metrics()["queries_total"]["by_label"]["select"] \
            == selects + 1
        events = db.event_log.events(query_id=result.query_id)
        chain = [e["event"] for e in events]
        assert chain == ["query_start", "parse", "plan_cache",
                         "execute", "query_end"]
        assert chain == sorted(chain, key=QUERY_EVENT_ORDER.index)
        assert events[2]["outcome"] == "hit"
        assert len(db.event_log.events(event="query_start")) == 1
