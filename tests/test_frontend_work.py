"""What the SQL front end does per statement, as deterministic counts;
the front end's sibling of ``tests/test_executor_work.py``.

``Database.sql`` lexes a text once and builds its plan-cache key from
those tokens. A warm hit runs the statement AST the cache entry keeps,
so it builds no parser; a miss hands the tokens to the parser and the
key to the plan lookup, so neither is computed twice. Either way the
plan cache moves its hit or its miss counter by exactly one.
"""

import sys

import pytest

from repro import Database, Options
from repro.plancache import cache_key
from repro.sql.lexer import tokenize
from repro.sql.parser import Parser
from repro.workloads import build_empdept

# the served.mixed point lookup and a magic_view.cold Figure-1 text
POINT = "SELECT E.eid, E.sal FROM Emp E WHERE E.did = %d"
FIG1 = ("SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
        "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
        "AND E.age < %d AND D.budget > %d")


@pytest.fixture(scope="module")
def db():
    # what `python -m repro serve --workload empdept` preloads
    return build_empdept(Database())


WATCHED = {tokenize.__code__: 0, Parser.__init__.__code__: 1,
           cache_key.__code__: 2}


def counted(run, text, cache):
    """``((lexed, parsed, keyed), (hits, misses) moved, result)`` for
    one ``run(text)``: how often ``text`` itself was lexed and parsed
    (a view's definition, which the binder parses when it expands the
    view, is another text) and a cache key was built."""
    calls = [0, 0, 0]

    def hook(frame, event, _arg):
        slot = WATCHED.get(frame.f_code) if event == "call" else None
        if slot == 2 or (slot is not None
                         and frame.f_locals["text"] == text):
            calls[slot] += 1

    before = cache.stats()
    sys.setprofile(hook)
    try:
        result = run(text)
    finally:
        sys.setprofile(None)
    after = cache.stats()
    moved = (after["hits"] - before["hits"],
             after["misses"] - before["misses"])
    return tuple(calls), moved, result


def test_warm_point_hit_builds_no_parser(db):
    text = POINT % 17
    for _ in range(3):  # stored on its second miss, a hit from then on
        db.sql(text)
    calls, moved, result = counted(db.sql, text, db.plan_cache)
    assert result.cached_plan
    assert calls == (1, 0, 1)
    assert moved == (1, 0)
    expected = db.sql(text, options=Options(use_cache=False))
    assert result.rows == expected.rows


def test_served_hit_builds_no_parser(db):
    """The server runs each request as ``Session.sql``."""
    text = POINT % 23
    with db.new_session() as session:
        for _ in range(3):
            session.sql(text)
        calls, moved, result = counted(session.sql, text, db.plan_cache)
    assert result.cached_plan
    assert calls == (1, 0, 1)
    assert moved == (1, 0)


def test_miss_lexes_parses_and_keys_once(db):
    calls, moved, result = counted(db.sql, FIG1 % (31, 412_345),
                                   db.plan_cache)
    assert not result.cached_plan
    assert calls == (1, 1, 1)
    assert moved == (0, 1)


def test_each_statement_moves_one_counter(db):
    text = POINT % 41
    verdicts = []
    for _ in range(4):
        _calls, moved, result = counted(db.sql, text, db.plan_cache)
        verdicts.append(moved)
        assert result.cached_plan == (moved == (1, 0))
    assert verdicts == [(0, 1), (0, 1), (1, 0), (1, 0)]
