"""Failure semantics of ``Database.execute_script``.

The documented contract (see the ``execute_script`` docstring): when
statement *k* of *n* raises, the effects of statements 1..k-1
**persist**, statement *k* leaves **no partial state** behind, and
statements k+1..n **never run**. There is no script-level rollback —
atomicity is per statement.
"""

import pytest

from repro import Database, DataType, Options, QueryTimeout, ReproError
from repro.distributed import DistributedDatabase, FaultPlan


def test_success_returns_one_result_per_statement():
    db = Database()
    script = """
        CREATE TABLE T (a INT);
        INSERT INTO T VALUES (1), (2);
        SELECT a FROM T;
    """
    results = db.execute_script(script)
    kinds = [r.statement_kind for r in results]
    assert kinds == ["create table", "insert", "select"]
    assert sorted(results[2].rows) == [(1,), (2,)]


def test_earlier_effects_persist_later_statements_never_run():
    db = Database()
    script = """
        CREATE TABLE T (a INT);
        INSERT INTO T VALUES (1), (2);
        SELECT broken FROM nowhere;
        INSERT INTO T VALUES (3);
        CREATE TABLE Never (b INT);
    """
    with pytest.raises(ReproError):
        list(db.execute_script(script))
    # 1..k-1 persisted
    assert sorted(db.sql("SELECT a FROM T").rows) == [(1,), (2,)]
    # k+1..n never ran
    assert not db.catalog.has_table("Never")


def test_failing_statement_leaves_no_partial_state():
    """An INSERT whose row batch fails mid-way must not leave a prefix
    of the batch behind: statement-level atomicity."""
    db = Database()
    list(db.execute_script("CREATE TABLE T (a INT);"
                           "INSERT INTO T VALUES (10);"))
    with pytest.raises(ReproError):
        # second row has the wrong arity -> the statement fails
        list(db.execute_script("INSERT INTO T VALUES (1), (2, 3);"))
    assert db.sql("SELECT a FROM T").rows == [(10,)]


def test_parse_error_anywhere_runs_nothing():
    """The script is parsed up-front, so a syntax error in ANY
    statement — even the last — means no statement runs at all."""
    db = Database()
    with pytest.raises(ReproError):
        db.execute_script("CREATE TABLE A (x INT); SELEC nope;")
    assert not db.catalog.has_table("A")


def test_timeout_applies_per_statement():
    """``timeout`` bounds each statement separately — a script is not
    one deadline shared across statements, so earlier statements'
    elapsed time does not starve later ones."""
    db = DistributedDatabase()
    db.create_table("R", [("x", DataType.INT)], site="east")
    db.insert("R", [(i,) for i in range(40)])
    db.analyze()
    db.set_fault_plan(FaultPlan(latency_rate=1.0, latency_seconds=30.0))
    script = "SELECT x FROM R; SELECT x FROM R;"
    results = []
    with pytest.raises(QueryTimeout):
        for result in db.execute_script(script, options=Options(timeout=0.1)):
            results.append(result)
    # the first statement already timed out; nothing was yielded
    assert results == []
    # fault-free, the same script completes: both statements got their
    # own fresh 5-second budget
    db.set_fault_plan(None)
    results = list(db.execute_script(script, options=Options(timeout=5.0)))
    assert len(results) == 2
