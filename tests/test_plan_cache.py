"""Tests for the LRU-bounded plan cache.

Covers hit/miss/invalidation/eviction accounting, key normalization,
per-config keying, the disabled (capacity 0) mode, admission (a one-shot
text on its second miss, a prepared handle at once), a twice-run pass
over the golden corpus, and — the critical
safety property — that after any random interleaving of DDL, statistics
updates, and queries, the plan that runs is the plan a cold planner
builds now and produces the same answer as a fresh-planned run.
"""

import os
import random

import pytest

from repro import Database, DataType, OptimizerConfig, Options
from repro.errors import ReproError, SqlSyntaxError
from repro.distributed.database import DistributedDatabase
from repro.optimizer.planner import Planner
from repro.plancache import PlanCache, cache_key, normalize_statement
from repro.sql.lexer import tokenize
from repro.workloads import EmpDeptConfig, MOTIVATING_QUERY, fresh_empdept

from tests.test_plan_golden import (
    REGIMES,
    WORKLOADS,
    _regime_config,
    exec_entry,
)


def small_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table("T1", [("a", DataType.INT), ("b", DataType.INT)])
    db.create_table("T2", [("a", DataType.INT), ("d", DataType.INT)])
    db.insert("T1", [(i % 7, i) for i in range(50)])
    db.insert("T2", [(i % 7, i % 3) for i in range(30)])
    db.create_view("V1",
                   "SELECT T2.a, COUNT(*) AS n FROM T2 GROUP BY T2.a")
    db.analyze()
    return db


QUERIES = [
    "SELECT T1.a, T1.b FROM T1 WHERE T1.b > 25",
    "SELECT T1.b, T2.d FROM T1, T2 WHERE T1.a = T2.a",
    "SELECT T1.b, V1.n FROM T1, V1 WHERE T1.a = V1.a",
    "SELECT T1.a, COUNT(*) AS n FROM T1 GROUP BY T1.a",
]


class TestAccounting:
    def test_hit_miss_counters(self):
        db = small_db()
        handle = db.prepare(QUERIES[0])
        stats = db.cache_stats()
        assert stats == dict(stats, misses=1, hits=0)
        for _ in range(4):
            handle.execute()
        stats = db.cache_stats()
        assert stats["hits"] == 4
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["hit_rate"] == pytest.approx(0.8)

    def test_invalidation_counted_and_replans(self):
        db = small_db()
        handle = db.prepare(QUERIES[0])
        handle.execute()
        db.sql("CREATE TABLE Extra (x INT)")
        assert handle.execute().cached_plan is True  # T1 did not move
        db.sql("INSERT INTO T1 VALUES (1, 1)")
        result = handle.execute()
        assert result.cached_plan is False  # re-planned, not served stale
        stats = db.cache_stats()
        assert stats["invalidations"] == 1
        # and the fresh entry serves hits again
        assert handle.execute().cached_plan is True

    def test_prepare_twice_shares_the_entry(self):
        db = small_db()
        first = db.prepare(QUERIES[1])
        second = db.prepare(QUERIES[1])
        assert first.plan is second.plan
        assert db.cache_stats()["misses"] == 1

    def test_normalization_ignores_whitespace_and_keyword_case(self):
        db = small_db()
        db.prepare("SELECT T1.a, T1.b FROM T1 WHERE T1.b > 25")
        db.prepare("select  T1.a,T1.b\n FROM T1   where T1.b > 25 ;")
        stats = db.cache_stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1

    def test_normalization_preserves_identifier_case_and_strings(self):
        assert (normalize_statement("select x from t -- comment\n")
                == "SELECT x FROM t")
        assert normalize_statement("SELECT 'a  b' FROM t") \
            == "SELECT 'a  b' FROM t"
        # identifier case is significant (it shapes output column names)
        assert normalize_statement("SELECT T.a FROM T") \
            != normalize_statement("SELECT t.a FROM t")

    def test_key_from_parser_tokens_equals_key_from_text(self):
        text = "select  T1.a FROM T1 -- note\n WHERE T1.b > 'x' ;"
        assert normalize_statement(tokenize(text)) \
            == normalize_statement(text)

    def test_script_statement_shares_the_one_shot_entry(self):
        db = small_db()
        db.execute_script(QUERIES[1] + ";\n" + QUERIES[0] + " ;")
        db.sql(QUERIES[1])  # second miss of the same key: stored
        assert db.sql(QUERIES[1].replace(" ", "\n  ")).cached_plan

    def test_distinct_configs_get_distinct_entries(self):
        db = small_db()
        plain = OptimizerConfig()
        no_fj = OptimizerConfig(enable_filter_join=False)
        db.prepare(QUERIES[2], config=plain)
        db.prepare(QUERIES[2], config=no_fj)
        assert db.cache_stats()["entries"] == 2
        assert cache_key(QUERIES[2], plain) != cache_key(QUERIES[2], no_fj)


class TestKeyBeforeParse:
    """``db.sql`` looks its key up before parsing and runs a hit's
    stored AST; a text the parser refuses must still be refused."""

    def test_a_second_terminator_is_still_a_syntax_error(self):
        db = small_db()
        for _ in range(3):
            db.sql(QUERIES[0])
        assert db.sql(QUERIES[0] + " ;").cached_plan
        for text in (QUERIES[0] + ";;", QUERIES[0] + " ; ;"):
            with pytest.raises(SqlSyntaxError, match="trailing input"):
                db.sql(text)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_syntax_error_leaves_the_transaction_usable(self, warm):
        db = small_db()
        for _ in range(3 if warm else 0):
            db.sql(QUERIES[0])
        db.sql("BEGIN")
        with pytest.raises(SqlSyntaxError):
            db.sql(QUERIES[0] + ";;")
        assert db.sql(QUERIES[0]).cached_plan == warm
        db.sql("INSERT INTO T1 VALUES (100, 100)")
        assert db.sql("COMMIT").statement_kind == "commit"
        assert (100, 100) in db.sql(QUERIES[0]).rows


# Texts for the key round-trip property: half are renderings of a few
# queries (keyword case, whitespace, comments and trailing ';' vary, and
# some get one atom inserted, dropped or replaced), so keys recur across
# different texts; half are random runs of atoms.
N_TEXTS = int(os.environ.get("SQL_TEXTS", "500"))
TEMPLATES = [
    "SELECT T1.a, T1.b FROM T1 WHERE T1.b > 25",
    "SELECT T1.b, T2.d FROM T1, T2 WHERE T1.a = T2.a AND T2.d <> 1",
    "SELECT T1.b, V1.n FROM T1, V1 WHERE T1.a = V1.a",
    "SELECT a, COUNT(*) AS n FROM T1 WHERE b IN (1, 2, 30) GROUP BY a",
    "SELECT a FROM T1 WHERE NOT b < 10 OR b >= 40.5",
    "SELECT k, s FROM S WHERE s = 'it''s' OR s <> 'a  b'",
    "SELECT k FROM S WHERE s = 'é' AND k * 2 - 1 = ?",
]
ATOMS = [
    "SELECT", "select", "FROM", "from", "WHERE", "AND", "OR", "NOT", "IN",
    "AS", "GROUP", "BY", "DELETE", "INSERT", "INTO", "VALUES", "UPDATE",
    "SET", "T1", "t1", "S", "a", "b", "k", "s", "é", "ß", "名", "²", "_x",
    "1", "30", "2.5", ".5", "1.5.3", "'x'", "'it''s'", "''", "'a\nb'",
    "'", "=", "<", ">", "<=", ">=", "<>", "!=", "!", "(", ")", ",", ".",
    "*", "+", "-", "/", ";", "?", "--", "-- note\n", " ", "  ", "\n",
    "\r\n", "\t", "@",
]
SEPARATORS = [" ", "  ", "\n", "\t", " -- note\n", "\r\n  "]


def sql_texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            yield "".join(rng.choice(ATOMS)
                          for _ in range(rng.randint(0, 12)))
            continue
        parts = []
        for token in tokenize(rng.choice(TEMPLATES))[:-1]:
            if token.kind == "keyword":
                parts.append(rng.choice([str.upper, str.lower,
                                         str.title])(token.text))
            elif token.kind == "string":
                parts.append("'%s'" % token.text.replace("'", "''"))
            else:
                parts.append(token.text)
        parts += [";"] * rng.choice([0, 0, 1, 2])
        if rng.random() < 0.3:
            where = rng.randrange(len(parts) + 1)
            parts[where:where + rng.randint(0, 1)] = (
                [rng.choice(ATOMS)] if rng.random() < 0.7 else [])
        yield "".join(part + rng.choice(SEPARATORS) for part in parts)


def pairs(tokens):
    return [(t.kind, t.text) for t in tokens if t.kind != "eof"]


def stream(tokens):
    """The ``(kind, text)`` pairs up to one trailing ';' (the parser
    accepts one)."""
    found = pairs(tokens)
    return found[:-1] if found[-1:] == [("symbol", ";")] else found


def outcome(db, text):
    try:
        result = db.sql(text)
    except ReproError as exc:  # anything else fails the test
        return type(exc).__name__, str(exc), False
    return "ok", sorted(map(repr, result.rows)), result.cached_plan


class TestKeyRoundTrip:
    """A hit runs the AST stored under its key, so that AST must be
    what parsing the text would give: the key determines the token
    stream. ``SQL_TEXTS`` (environment) sets how many texts; tier-1
    runs 500, CI's sweep 20,000."""

    def test_key_fixes_the_token_stream(self):
        db = small_db()
        db.create_table("S", [("k", DataType.INT), ("s", DataType.STR)],
                        rows=[(1, "it's"), (2, "a  b"), (3, "é")])
        streams, hits, lexed = {}, 0, 0
        for text in sql_texts(43, N_TEXTS):
            try:
                tokens = tokenize(text)
            except SqlSyntaxError:
                with pytest.raises(SqlSyntaxError):
                    db.sql(text)
                continue
            lexed += 1
            key = normalize_statement(tokens)
            assert pairs(tokenize(key)) == stream(tokens), text
            assert streams.setdefault(key, stream(tokens)) \
                == stream(tokens), text
            first = outcome(db, text)
            outcome(db, text)  # a one-shot text is stored on this miss
            third = outcome(db, text)
            hits += third[2]
            if tokens[0].is_keyword("SELECT"):
                assert third[:2] == first[:2], text
        assert lexed > N_TEXTS // 2 and hits > N_TEXTS // 10


class TestAdmission:
    """A one-shot text is stored on its second miss; a prepared handle
    on its first."""

    def test_one_shot_text_stored_on_its_second_miss(self):
        db = small_db()
        key = cache_key(QUERIES[1], db.config)
        first = db.sql(QUERIES[1])
        assert first.cached_plan is False
        assert db.plan_cache.peek(key) is None
        second = db.sql(QUERIES[1])
        assert second.cached_plan is False
        assert db.plan_cache.peek(key) is not None
        third = db.sql(QUERIES[1])
        assert third.cached_plan is True
        assert first.rows == second.rows == third.rows
        stats = db.cache_stats()
        assert (stats["misses"], stats["hits"]) == (2, 1)

    def test_prepared_handle_stored_at_prepare(self):
        db = small_db()
        handle = db.prepare(QUERIES[2])
        assert handle.plan is not None
        assert db.cache_stats()["entries"] == 1
        assert handle.execute().cached_plan is True
        # a one-shot run of the prepared text hits the same entry
        assert db.sql(QUERIES[2]).cached_plan is True

    def test_capacity_zero_disables_one_shot_caching(self):
        for db in (small_db(plan_cache_size=0), small_db()):
            db.plan_cache.resize(0)
            results = [db.sql(QUERIES[1]) for _ in range(3)]
            assert not any(result.cached_plan for result in results)
            assert db.cache_stats()["entries"] == 0

    def test_per_call_opt_out_skips_the_cache(self):
        db = small_db()
        for _ in range(3):
            db.sql(QUERIES[0], options=Options(use_cache=False))
        stats = db.cache_stats()
        assert (stats["entries"], stats["misses"], stats["hits"]) == (0,) * 3

    def test_missed_record_is_bounded_like_the_cache(self):
        db = small_db(plan_cache_size=2)
        for query in QUERIES:  # four first misses; the record keeps two
            db.sql(query)
        db.sql(QUERIES[0])     # forgotten: a first miss again
        db.sql(QUERIES[3])     # remembered: stored
        assert db.plan_cache.peek(cache_key(QUERIES[0], db.config)) is None
        assert db.plan_cache.peek(
            cache_key(QUERIES[3], db.config)) is not None

    def test_invalidated_text_is_re_stored_at_once(self):
        db = small_db()
        for _ in range(2):
            db.sql(QUERIES[0])
        db.analyze("T1")
        assert db.sql(QUERIES[0]).cached_plan is False  # invalidation
        assert db.sql(QUERIES[0]).cached_plan is True

    def test_cached_rows_equal_uncached_rows(self):
        """Serving the Figure-1 query from the cache — prepared or
        one-shot — never changes the answer."""
        db = fresh_empdept(EmpDeptConfig(
            num_departments=100, employees_per_department=10, seed=301))
        expected = sorted(db.sql(
            MOTIVATING_QUERY, options=Options(use_cache=False)).rows)
        handle = db.prepare(MOTIVATING_QUERY)
        for _ in range(3):
            assert sorted(handle.execute().rows) == expected
            assert sorted(db.sql(MOTIVATING_QUERY).rows) == expected
        assert db.sql(MOTIVATING_QUERY).cached_plan is True


class TestGoldenCorpusTwice:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_second_pass_hits_every_query_identically(self, workload):
        """With the cache on by default, the corpus (every regime) run
        again is served entirely from the cache, with rows and every
        ledger component byte-identical to the pass that planned it."""
        builder, queries = WORKLOADS[workload]
        db = builder()

        def one_pass():
            entries, verdicts = [], []
            for regime in sorted(REGIMES):
                config = _regime_config(db, REGIMES[regime])
                for key, sql in queries:
                    result = db.sql(sql, config=config)
                    entries.append(exec_entry(key, result))
                    verdicts.append(result.cached_plan)
            return "".join(entries), verdicts

        one_pass()  # the first sight of each text is only recorded
        planned, verdicts = one_pass()
        assert not any(verdicts)
        served, verdicts = one_pass()
        assert all(verdicts)
        assert served == planned


class TestLRU:
    def test_eviction_at_capacity(self):
        db = small_db(plan_cache_size=2)
        for query in QUERIES[:3]:
            db.prepare(query)
        stats = db.cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # the oldest entry is gone: re-preparing it misses
        db.prepare(QUERIES[0])
        assert db.cache_stats()["misses"] == 4

    def test_lru_order_follows_use(self):
        db = small_db(plan_cache_size=2)
        a = db.prepare(QUERIES[0])
        db.prepare(QUERIES[1])
        a.execute()             # touch A: B is now least recently used
        db.prepare(QUERIES[2])  # evicts B
        assert a.plan is not None
        assert db.prepare(QUERIES[1]).execute().rows  # re-planned miss
        assert db.cache_stats()["evictions"] == 2

    def test_resize_and_clear(self):
        db = small_db()
        for query in QUERIES:
            db.prepare(query)
        db.plan_cache.resize(1)
        assert db.cache_stats()["entries"] == 1
        db.plan_cache.clear()
        stats = db.cache_stats()
        assert stats["entries"] == 0
        assert stats["hits"] == stats["misses"] == 0

    def test_capacity_zero_disables_caching(self):
        db = small_db(plan_cache_size=0)
        handle = db.prepare(QUERIES[0])
        first = handle.execute()
        second = handle.execute()
        assert first.rows == second.rows
        assert first.cached_plan is False
        assert second.cached_plan is False
        stats = db.cache_stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 0
        assert stats["misses"] >= 3  # prepare + each execute

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(-1)


class TestStalenessProperty:
    """After any interleaving of DDL / stats / data changes and queries,
    the plan that runs is the plan a cold planner builds now, and every
    answer matches a fresh-planned run."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleaving_never_serves_stale_plans(self, seed):
        rng = random.Random(9000 + seed)
        db = small_db()
        handles = {q: db.prepare(q) for q in QUERIES}
        aux = 0

        def do_ddl():
            nonlocal aux
            aux += 1
            db.sql("CREATE TABLE Aux%d (x INT)" % aux)
            if aux > 1 and rng.random() < 0.5:
                db.sql("DROP TABLE Aux%d" % (aux - 1))

        def do_stats():
            db.analyze("T1" if rng.random() < 0.5 else None)

        def do_insert():
            db.insert("T1", [(rng.randint(0, 6), rng.randint(0, 99))])

        def do_query():
            query = rng.choice(QUERIES)
            result = handles[query].execute()
            # 1) the plan that ran is what a cold planner plans now
            entry = db.plan_cache.peek(cache_key(query, db.config))
            assert entry.plan is result.plan and entry.current(db.catalog)
            cold = Planner(db.catalog, db.config).plan(db.bind(query))
            assert result.plan.explain() == cold.explain(), query
            assert result.plan.est_cost == cold.est_cost, query
            # 2) the answer matches a fresh-planned, uncached run
            fresh = db.sql(query)
            assert sorted(result.rows) == sorted(fresh.rows), query

        actions = [do_ddl, do_stats, do_insert, do_query, do_query]
        for _ in range(40):
            rng.choice(actions)()
        assert db.cache_stats()["invalidations"] > 0  # churn really happened

    def test_every_mutation_kind_moves_what_it_touched(self):
        db = small_db()
        names = ("m", "mv")
        seen = [db.catalog.inputs(names)]
        others = db.catalog.inputs(("t1", "t2", "v1"))

        def moved():
            now = db.catalog.inputs(names)
            assert now != seen[-1], "mutation did not move the inputs"
            seen.append(now)

        db.sql("CREATE TABLE M (x INT, y INT)")
        moved()
        db.sql("INSERT INTO M VALUES (1, 2)")
        moved()
        db.create_index("M", "x")
        moved()
        db.sql("CREATE VIEW MV AS SELECT M.x FROM M")
        moved()
        db.analyze("M")
        moved()
        # same row count, same page: nothing a plan reads moved
        db.sql("UPDATE M SET y = y + 1")
        assert db.catalog.inputs(names) == seen[-1]
        db.sql("DROP VIEW MV")
        moved()
        db.sql("DROP TABLE M")
        moved()
        assert db.catalog.inputs(("t1", "t2", "v1")) == others

    def test_re_registered_udf_is_not_served_from_a_cached_plan(self):
        db = small_db()
        db.sql("CREATE TABLE U (k INT)")
        db.sql("INSERT INTO U VALUES (1), (2), (3)")

        def register(offset):
            db.functions.register_function(
                "shift", [("k", DataType.INT)], [("r", DataType.INT)],
                lambda args: [(args[0] + offset,)],
            )

        register(10)
        query = "SELECT U.k, F.r FROM U, shift F WHERE U.k = F.k"
        for _ in range(3):
            result = db.sql(query)
        assert result.cached_plan
        assert sorted(result.rows) == [(1, 11), (2, 12), (3, 13)]
        register(100)
        assert sorted(db.sql(query).rows) == [(1, 101), (2, 102), (3, 103)]

    def test_insert_through_cached_plan_sees_new_rows(self):
        db = small_db()
        handle = db.prepare("SELECT COUNT(*) AS n FROM T1")
        before = handle.execute().rows[0][0]
        db.sql("INSERT INTO T1 VALUES (1, 999)")
        assert handle.execute().rows[0][0] == before + 1


class TestDistributedInvalidation:
    def test_moving_a_table_invalidates_cached_plans(self):
        db = DistributedDatabase()
        db.create_table("R", [("k", DataType.INT), ("v", DataType.INT)])
        db.create_table("S", [("k", DataType.INT), ("w", DataType.INT)],
                        site="east")
        db.insert("R", [(i, i) for i in range(40)])
        db.insert("S", [(i % 10, i) for i in range(40)])
        db.analyze()
        handle = db.prepare(
            "SELECT R.v, S.w FROM R, S WHERE R.k = S.k"
        )
        rows = sorted(handle.execute().rows)
        db.place_table("S", "west")
        result = handle.execute()
        assert result.cached_plan is False  # placement change re-planned
        assert sorted(result.rows) == rows
        assert db.cache_stats()["invalidations"] >= 1
