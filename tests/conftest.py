"""Shared fixtures for the test suite."""

import sys

import pytest

from repro import Database, DataType
from repro.workloads import EmpDeptConfig, fresh_empdept


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/ snapshots from the current planner "
             "instead of asserting against them",
    )


@pytest.fixture(scope="session")
def update_golden(request):
    return request.config.getoption("--update-golden")


SMALL_EMPDEPT = EmpDeptConfig(
    num_departments=40,
    employees_per_department=15,
    big_fraction=0.2,
    young_fraction=0.3,
    seed=11,
)


@pytest.fixture(scope="module")
def empdept_db():
    """A small Emp/Dept database shared within a test module.

    Module-scoped for speed; tests must not mutate the data.
    """
    return fresh_empdept(SMALL_EMPDEPT)


@pytest.fixture()
def tiny_db():
    """A tiny two-table database, rebuilt per test (mutable)."""
    db = Database()
    db.create_table("R", [("a", DataType.INT), ("b", DataType.INT)])
    db.create_table("S", [("a", DataType.INT), ("c", DataType.STR)])
    db.insert("R", [(i, i % 5) for i in range(20)])
    db.insert("S", [(i, "s%d" % i) for i in range(0, 20, 2)])
    db.analyze()
    return db


def reference_motivating_answer(db):
    """Brute-force answer to the Figure-1 query for cross-checking."""
    import collections

    emp = db.catalog.table("Emp").rows
    dept = db.catalog.table("Dept").rows
    sals = collections.defaultdict(list)
    for (_eid, did, sal, _age) in emp:
        sals[did].append(sal)
    avg = {d: sum(v) / len(v) for d, v in sals.items()}
    budget = dict(dept)
    return sorted(
        (did, sal, avg[did])
        for (_eid, did, sal, age) in emp
        if age < 30 and budget[did] > 100_000 and sal > avg[did]
    )


def python_calls(fn, *args, **kwargs):
    """``(entered, result)``: the code object of every Python function
    entered while ``fn(*args, **kwargs)`` ran on this thread, in call
    order, and what it returned. Counting calls instead of timing them
    makes an overhead claim deterministic."""
    entered = []

    def hook(frame, event, _arg):
        if event == "call":
            entered.append(frame.f_code)

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return entered, result
