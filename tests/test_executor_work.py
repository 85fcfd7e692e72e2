"""What the executor does per statement, as deterministic counts; the
executor's sibling of ``tests/test_planner_work.py``.

A lossy Filter Join probes its bitmap once per row of the inner it
restricts, but the verdict depends on the key only, so a bound set asks
once per distinct key: counted over a Bloom-forced join of a 30,000-row
fact table whose key takes 300 values (``view5``'s shape). A warm
statement records its operators' actuals and builds no span or label.
"""

import os
import subprocess
import sys

import pytest

from repro import Database
from repro.bloom import BloomFilter
from repro.obs.trace import Span, walk_plan
from repro.optimizer.plans import PlanNode
from repro.workloads import build_empdept

FACT_ROWS, KEYS = 30_000, 300
SQL = ("SELECT C.region, F.amt FROM C, F "
       "WHERE C.cid = F.cid AND C.region < 3")

_SETUP = """
import random
from repro import Database, DataType, OptimizerConfig
rng = random.Random(7)
db = Database()
db.create_table("C", [("cid", DataType.INT), ("region", DataType.INT)],
                rows=[(k, k %% 7) for k in range(%(keys)d)])
db.create_table("F", [("cid", DataType.INT), ("amt", DataType.INT)],
                rows=[(rng.randrange(%(keys)d), i) for i in range(%(rows)d)])
config = OptimizerConfig(forced_stored_join="bloom")
""" % {"keys": KEYS, "rows": FACT_ROWS}


@pytest.fixture(scope="module")
def star():
    scope = {}
    exec(_SETUP, scope)  # noqa: S102 - the fixed script above
    db, config = scope["db"], scope["config"]
    db.sql(SQL, config=config)  # statistics settle
    return db, config


def test_bloom_probe_asks_once_per_distinct_key(star, monkeypatch):
    db, config = star
    asked = []
    real = BloomFilter.contains_hashes
    monkeypatch.setattr(
        BloomFilter, "contains_hashes",
        lambda bloom, hashes: asked.append(len(hashes))
        or real(bloom, hashes))
    result = db.sql(SQL, config=config)
    assert "Bloom" in db.explain(SQL, config=config)
    regions = {cid: cid % 7 for cid in range(KEYS)}
    fact = db.sql("SELECT cid FROM F").rows
    assert len(result.rows) == sum(
        1 for (cid,) in fact if regions[cid] < 3)
    # the inner's 30,000 rows reach the bitmap as at most 300 keys
    assert 0 < sum(asked) <= KEYS


def test_statement_leaves_numpy_ma_unimported():
    """``np.unique`` imports ``numpy.ma``, about 1.5 MiB of resident
    memory for every process; the probe must not need it."""
    script = _SETUP + (
        "db.sql(%r, config=config)\n"
        "import sys\n"
        "print('numpy.ma' in sys.modules)\n" % SQL)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_warm_point_lookup_builds_no_span_and_no_label(monkeypatch):
    db = Database()
    build_empdept(db)
    sql = "SELECT E.eid, E.sal FROM Emp E WHERE E.did = 3"
    for _ in range(3):  # stored on the second miss, a hit from then on
        db.sql(sql)
    built, classes = [], [PlanNode, Span]
    for cls in classes:
        classes.extend(cls.__subclasses__())
        name = "label" if cls is not Span else "__init__"
        if name in vars(cls):
            monkeypatch.setattr(cls, name, lambda *a, real=getattr(cls, name),
                                **k: built.append(real) or real(*a, **k))
    result = db.sql(sql)
    assert result.cached_plan and built == []
    operators = result.record.operators
    assert len(operators) == len(list(walk_plan(result.plan))) >= 2
    assert all(op.executions == 1 and op.batches >= 1 for op in operators)
    spans = result.trace.operator_spans()
    assert built and [(s.actual_rows, s.batches) for s in spans] == \
        [(op.rows, op.batches) for op in operators]
    assert spans[0].actual_rows == len(result.rows) == 40
