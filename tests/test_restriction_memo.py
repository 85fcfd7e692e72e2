"""The cross-statement restriction memo (Section 4.2's classes kept
past the statement).

The memo may change how much planning a statement costs, never what it
plans: every test here holds a planner that reads the shared memo
against a cold ``Planner`` with an empty one and asks for the same
``explain`` text and the same estimated cost, bit for bit.
"""

import gc
import random
import sys
import threading
import types

import pytest

from repro import OptimizerConfig, OptimizerTrace
from repro.algebra.relations import RelationRef
from repro.distributed import DistributedDatabase
from repro.optimizer.parametric import RestrictionMemo
from repro.optimizer.planner import Planner
from repro.optimizer.plans import DeferredTemplateNode, PlanNode, RelabelNode
from repro.workloads import (
    EmpDeptConfig,
    MOTIVATING_QUERY,
    StarConfig,
    build_empdept,
    fresh_empdept,
    fresh_star,
)

from .test_plan_golden import REGIMES, WORKLOADS, _regime_config

FIG1 = ("SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
        "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
        "AND E.age < %d AND D.budget > %d")
STAR = ("SELECT C.region, P.category, SUM(S.amount) AS revenue, "
        "COUNT(*) AS n FROM Sales S, Customer C, Product P "
        "WHERE S.cust_id = C.cust_id AND S.prod_id = P.prod_id "
        "AND P.price > %d GROUP BY C.region, P.category")
VIEW5 = ("SELECT C.region, P.category, SUM(S.amount) AS revenue, "
         "COUNT(*) AS n FROM Sales S, Customer C, Product P, Store T, "
         "CustSpend V WHERE S.cust_id = C.cust_id "
         "AND S.prod_id = P.prod_id AND S.store_id = T.store_id "
         "AND V.cust_id = C.cust_id AND V.total_spend > %d "
         "AND P.price > %d GROUP BY C.region, P.category")

VIEW_DID = ("SELECT D.did, D.budget, V.avgsal FROM Dept D, DepAvgSal V "
            "WHERE D.did = V.did AND D.did = %d")

SMALL = EmpDeptConfig(num_departments=40, employees_per_department=15,
                      big_fraction=0.2, young_fraction=0.3, seed=11)
# the end-to-end benchmark's Figure-1 database
BENCH_EMPDEPT = EmpDeptConfig(num_departments=500,
                              employees_per_department=40, seed=7)


def cold_plan(db, sql, config=None):
    """What a planner that shares nothing plans for ``sql``."""
    return Planner(db.catalog, config or db.config).plan(db.bind(sql))


def no_deferred(plan):
    assert not isinstance(plan, DeferredTemplateNode)
    for child in plan.children():
        no_deferred(child)


class CountingPlanner(Planner):
    """Tallies candidates and DP entries of the statement's own blocks
    (restriction depth 0), which the memo must leave alone; the totals
    in ``metrics`` also cover the nested runs it skips."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.own_considered = 0
        self.own_entries = 0
        self._inner_entries = 0

    def _add_entry(self, table, candidate):
        if self._restriction_depth == 0:
            self.own_considered += 1
        super()._add_entry(table, candidate)

    def _plan_joins(self, block):
        depth = self._restriction_depth
        outer_inner, self._inner_entries = self._inner_entries, 0
        before = self.metrics.dp_entries
        best = super()._plan_joins(block)
        total = self.metrics.dp_entries - before
        if depth == 0:
            self.own_entries += total - self._inner_entries
        self._inner_entries = outer_inner + total
        return best


def assert_warm_equals_cold(db, sql, config, memo):
    cold = CountingPlanner(db.catalog, config)
    expected = cold.plan(db.bind(sql))
    warm = CountingPlanner(db.catalog, config, memo=memo)
    warm_plan = warm.plan(db.bind(sql))
    no_deferred(warm_plan)
    assert warm_plan.explain() == expected.explain(), sql
    assert warm_plan.est_cost == expected.est_cost, sql
    assert warm_plan.est_components == expected.est_components, sql
    # the statement's own search is untouched; only nested runs go
    assert warm.own_considered == cold.own_considered, sql
    assert warm.own_entries == cold.own_entries, sql
    assert warm.metrics.nested_optimizations \
        <= cold.metrics.nested_optimizations, sql
    assert warm.metrics.plans_considered <= cold.metrics.plans_considered
    return warm


class TestDifferential:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_golden_corpus_warm_equals_cold(self, workload):
        build, queries = WORKLOADS[workload]
        db = build()
        memo = RestrictionMemo()
        for regime in sorted(REGIMES):
            config = _regime_config(db, REGIMES[regime])
            for _round in range(2):  # second round: everything memoised
                for _key, sql in queries:
                    assert_warm_equals_cold(db, sql, config, memo)

    def test_seeded_figure1_texts(self):
        db = fresh_empdept(SMALL)
        memo = RestrictionMemo()
        rng = random.Random(1996)
        saved = 0
        for _ in range(100):
            sql = FIG1 % (rng.randint(24, 45), rng.randint(50_000, 400_000))
            warm = assert_warm_equals_cold(db, sql, db.config, memo)
            saved += warm.metrics.restriction_memo_hits
        assert memo.hits == saved > 100  # the view's classes, every time

    def test_seeded_star_and_view5_texts(self):
        db = fresh_star(StarConfig(num_sales=1500, seed=7))
        memo = RestrictionMemo()
        rng = random.Random(7)
        for index in range(200):
            if index % 2:
                sql = STAR % rng.randint(90, 110)
            else:
                sql = VIEW5 % (rng.randint(100, 200) * 100,
                               rng.randint(90, 110))
            assert_warm_equals_cold(db, sql, db.config, memo)
        assert memo.hits > 0


class TestStaleness:
    """Random interleavings of everything that can change what the
    classes depend on, with planning in between: the database's own
    (warm) planner must agree with a cold one every time."""

    CONFIGS = [
        OptimizerConfig(),
        OptimizerConfig(parametric_classes=3),
        OptimizerConfig(enable_bloom_filter=False),
        OptimizerConfig(enable_index_nested_loops=False, memory_pages=8),
    ]
    QUERIES = [
        MOTIVATING_QUERY,
        FIG1 % (27, 150_000),
        "SELECT E.eid, V.avgsal FROM Emp E, DepAvgSal V "
        "WHERE E.did = V.did AND E.age < 30",
        "SELECT E.eid, D.budget FROM Emp E, Dept D "
        "WHERE E.did = D.did AND D.budget > 100000",
        "SELECT D.did, Y.avgsal FROM Dept D, Young Y WHERE D.did = Y.did",
    ]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleaving_never_serves_stale_classes(self, seed):
        rng = random.Random(4200 + seed)
        db = build_empdept(DistributedDatabase(), SMALL)
        young = ("SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E "
                 "WHERE E.age < %d GROUP BY E.did")
        db.create_view("Young", young % 30)
        state = {"config": self.CONFIGS[0], "aux": 0, "eid": 10_000}

        def do_ddl():
            if rng.random() < 0.5:
                # same name, another body: the name alone is no key
                db.drop_view("Young")
                db.create_view("Young", young % rng.randint(25, 40))
            else:
                state["aux"] += 1
                db.sql("CREATE TABLE Aux%d (x INT)" % state["aux"])

        def do_insert():
            rows = []
            for _ in range(rng.randint(1, 60)):
                state["eid"] += 1
                rows.append((state["eid"], rng.randint(1, 40),
                             rng.randint(30_000, 150_000),
                             rng.randint(21, 64)))
            db.insert("Emp", rows)

        def do_delete():
            low = rng.randint(1, 600)
            db.delete("Emp", "eid >= %d AND eid < %d"
                      % (low, low + rng.randint(1, 80)))

        def do_vacuum():
            db.vacuum()

        def do_stats():
            db.analyze("Emp" if rng.random() < 0.5 else None)

        def do_placement():
            choice = rng.random()
            if choice < 0.4:
                db.place_table("Dept", rng.choice(["east", "west", None]))
            elif choice < 0.7:
                db.add_replica("Dept", rng.choice(["north", "south"]))
            elif "east" in db.down_sites:
                db.mark_site_up("east")
            else:
                db.mark_site_down("east")

        def do_config():
            state["config"] = rng.choice(self.CONFIGS)

        def do_plan():
            sql = rng.choice(self.QUERIES)
            config = state["config"]
            warm, _planner = db.plan(sql, config)
            cold = cold_plan(db, sql, config)
            assert warm.explain() == cold.explain(), sql
            assert warm.est_cost == cold.est_cost, sql
            assert db.explain(sql, config) == cold.explain(), sql

        actions = [do_ddl, do_insert, do_delete, do_vacuum, do_stats,
                   do_placement, do_config,
                   do_plan, do_plan, do_plan, do_plan, do_plan]
        for _ in range(80):
            rng.choice(actions)()
        memo = db.restriction_memo.stats()
        assert memo["hits"] > 0 and memo["misses"] > 0

    @staticmethod
    def inners(db, name):
        """How many memo entries belong to an inner named ``name``."""
        return sum(1 for key in db.restriction_memo._entries
                   if key[2] == name)

    def test_a_write_drops_only_the_classes_that_read_it(self):
        db = fresh_empdept(SMALL)
        db.plan(MOTIVATING_QUERY)
        assert len(db.restriction_memo) == 6
        dept = self.inners(db, "Dept")
        assert dept == 2
        db.insert("Dept", [(999, 5)])
        warm, planner = db.plan(MOTIVATING_QUERY)
        # Emp's and DepAvgSal's classes read nothing of Dept
        assert planner.metrics.restriction_memo_misses == dept
        assert planner.metrics.restriction_memo_hits == 6 - dept
        cold = cold_plan(db, MOTIVATING_QUERY)
        assert warm.explain() == cold.explain()
        assert warm.est_cost == cold.est_cost

    def test_explicit_vacuum_drops_the_classes_it_compacted(self):
        """Compaction changes the page counts the classes priced."""
        db = fresh_empdept(SMALL)
        db.delete("Emp", "eid > 500")  # 100 of 600: no auto-vacuum
        db.plan(MOTIVATING_QUERY)
        pages = db.catalog.table("Emp").num_pages
        assert db.vacuum() == {"Emp": 100}
        assert db.catalog.table("Emp").num_pages < pages
        warm, planner = db.plan(MOTIVATING_QUERY)
        # Emp's own classes and DepAvgSal's (its body reads Emp) miss
        assert planner.metrics.restriction_memo_misses == 4
        assert planner.metrics.restriction_memo_hits == 2
        cold = cold_plan(db, MOTIVATING_QUERY)
        assert warm.explain() == cold.explain()
        assert warm.est_cost == cold.est_cost

    def test_statement_scoped_names_are_not_memoised(self):
        """A CTE or an inline derived table has a name only inside its
        statement (and a CTE can shadow a table inside a view body):
        two statements reusing the name must not share classes."""
        db = fresh_empdept(SMALL)
        shapes = [
            "WITH W AS (SELECT E.did, AVG(E.sal) AS a FROM Emp E "
            "WHERE E.age < %d GROUP BY E.did) "
            "SELECT D.did, W.a FROM Dept D, W WHERE D.did = W.did",
            "SELECT D.did, W.a FROM Dept D, (SELECT E.did, AVG(E.sal) "
            "AS a FROM Emp E WHERE E.age < %d GROUP BY E.did) W "
            "WHERE D.did = W.did",
            # DepAvgSal's body says "FROM Emp": here that is the CTE
            "WITH Emp AS (SELECT D.did AS eid, D.did AS did, "
            "D.budget AS sal, D.did AS age FROM Dept D "
            "WHERE D.did < %d) "
            "SELECT D.did, V.avgsal FROM Dept D, DepAvgSal V "
            "WHERE D.did = V.did",
        ]
        for shape in shapes:
            for constant in (25, 60, 25):
                sql = shape % constant
                warm, _ = db.plan(sql)
                cold = cold_plan(db, sql)
                assert warm.explain() == cold.explain(), sql
                assert warm.est_cost == cold.est_cost, sql

    def test_open_transaction_reads_its_own_snapshot(self):
        """Inside an explicit transaction row counts are the reader's
        snapshot's: the writer's uncommitted row makes its Dept classes
        miss, while a reader that cannot see the row keeps them."""
        db = fresh_empdept(SMALL)
        db.plan(MOTIVATING_QUERY)
        session = db.new_session()
        session.sql("BEGIN")
        session.sql("INSERT INTO Dept VALUES (998, 7)")

        def plan_as(reader):
            def run():
                with db.txn.statement_snapshot():
                    warm, planner = db.plan(MOTIVATING_QUERY)
                    cold = cold_plan(db, MOTIVATING_QUERY)
                assert warm.explain() == cold.explain()
                assert warm.est_cost == cold.est_cost
                return planner.metrics
            return reader._run(run) if reader else run()

        outside = plan_as(None)
        assert (outside.restriction_memo_hits,
                outside.restriction_memo_misses) == (6, 0)
        inside = plan_as(session)
        assert (inside.restriction_memo_hits,
                inside.restriction_memo_misses) == (4, 2)
        session.sql("ROLLBACK")
        session.close()
        plan_as(None)


class TemplateCheckingPlanner(Planner):
    """Holds every deferred template it resolves to the memo numbers its
    candidate was costed from: the class key is exact only if planning
    the statement's own literal gives back those numbers."""

    resolved = 0

    def _resolve_templates(self, node):
        if isinstance(node, RelabelNode) and \
                isinstance(node.child, DeferredTemplateNode):
            costed = node.child
            planned = costed.resolve()
            assert planned.est_cost == costed.est_cost
            assert planned.est_rows == costed.est_rows
            assert planned.est_components == costed.est_components
            self.resolved += 1
        super()._resolve_templates(node)


class TestEquivalenceClasses:
    """The memo keys an inner's local literal by the selectivity the
    estimator reads from it, so a new constant in a seen class is a hit,
    and a hit plans what a cold planner plans, bit for bit."""

    @pytest.fixture(scope="class")
    def db(self):
        db = fresh_empdept(BENCH_EMPDEPT)
        db.plan(FIG1 % (30, 200_000))  # lazy statistics settle
        return db

    @staticmethod
    def sweep(db, texts):
        memo, resolved = RestrictionMemo(), 0
        for sql in texts:
            planner = TemplateCheckingPlanner(db.catalog, db.config,
                                              memo=memo)
            plan = planner.plan(db.bind(sql))
            no_deferred(plan)
            cold = cold_plan(db, sql)
            assert plan.explain() == cold.explain(), sql
            assert plan.est_cost == cold.est_cost, sql
            assert plan.est_components == cold.est_components, sql
            resolved += planner.resolved
        assert memo.hits > memo.misses
        return memo, resolved

    def test_figure1_every_age_against_seeded_budgets(self, db):
        """Each age 24-45 against five of 110 seeded budgets."""
        ages = range(24, 46)
        budgets = random.Random(29).sample(range(100_000, 800_001), 110)
        texts = [FIG1 % (ages[i % len(ages)], budget)
                 for i, budget in enumerate(budgets)]
        memo, resolved = self.sweep(db, texts)
        assert resolved > 0
        age = db.catalog.stats("Emp").column("age")
        budget = db.catalog.stats("Dept").column("budget")
        classes = (len({age.selectivity_cmp("<", a) for a in ages})
                   + len({budget.selectivity_cmp(">", b) for b in budgets}))
        # an exact and a Bloom coster per inner, the view's two included
        assert len(memo) <= 2 * (classes + 1)
        assert classes < len(ages) + len(budgets)

    def test_view_lookup_for_every_department(self, db):
        texts = [VIEW_DID % did for did in range(1, 501)]
        memo, _resolved = self.sweep(db, texts)
        assert len(memo) < 10

    def test_other_local_shapes_match_cold(self, db):
        """IN-lists, OR, NOT, a literal on the left, and shapes keyed by
        their text (arithmetic, column against column)."""
        shapes = [
            "D.did IN (%d, 7)", "D.did NOT IN (%d, 7)",
            "(D.budget > %d OR D.did < 20)", "NOT (D.budget < %d)",
            "%d < D.budget", "D.budget + 0 > %d", "D.budget > D.did + %d",
        ]
        rng = random.Random(7)
        texts = [("SELECT E.eid, D.budget FROM Emp E, Dept D "
                  "WHERE E.did = D.did AND E.age < 30 AND " + shape)
                 % rng.randint(1, 900_000)
                 for _round in range(6) for shape in shapes]
        self.sweep(db, texts)

    def test_a_new_selectivity_is_a_new_class(self, db):
        budget = db.catalog.stats("Dept").column("budget")
        by_class = {}
        for constant in range(100_000, 800_000, 997):
            by_class.setdefault(budget.selectivity_cmp(">", constant),
                                []).append(constant)
        first, second = [constants for constants in by_class.values()
                         if len(constants) > 1][:2]
        memo = RestrictionMemo()

        def misses(constant):
            planner = Planner(db.catalog, db.config, memo=memo)
            planner.plan(db.bind(FIG1 % (30, constant)))
            return planner.metrics.restriction_memo_misses

        assert misses(first[0]) > 0
        assert misses(first[1]) == 0  # another literal, the same class
        assert misses(second[0]) > 0  # another class: Dept's costers miss
        assert misses(second[1]) == 0


class TestBound:
    def test_capacity_holds_and_nothing_but_numbers_is_kept(self):
        # 600 departments: more budgets than a frequency histogram
        # tracks, so the equi-depth histogram interpolates and every
        # constant below is a class of its own
        db = fresh_empdept(EmpDeptConfig(num_departments=600,
                                         employees_per_department=1))
        query = ("SELECT E.eid, D.budget FROM Emp E, Dept D "
                 "WHERE E.did = D.did AND D.budget > %d")
        # two classes, no Bloom variant: the bound is what is tested
        lean = OptimizerConfig(parametric_classes=2,
                               enable_bloom_filter=False)
        constants = range(10_000, 100_000, 45)
        for constant in constants:
            db.plan(query % constant, lean)
        budget = db.catalog.stats("Dept").column("budget")
        assert budget.frequencies is None
        classes = len({budget.selectivity_cmp(">", c) for c in constants})
        assert classes > 3 * RestrictionMemo.CAPACITY
        memo = db.restriction_memo
        assert 0 < len(memo) <= memo.CAPACITY
        assert memo.evictions >= classes - memo.CAPACITY
        metrics = db.metrics()
        assert metrics["planner_restriction_memo_evictions_total"][
            "total"] == memo.evictions
        assert metrics["planner_restriction_memo_misses_total"][
            "total"] == memo.misses
        assert "%d/%d entries" % (len(memo), memo.CAPACITY) \
            in db.cache_stats()["restriction_memo"]

        db.last_planner = None
        gc.collect()
        seen, frontier = set(), [memo]
        while frontier:
            obj = frontier.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                continue  # code, not data the memo keeps alive
            assert not isinstance(obj, (PlanNode, RelationRef)), obj
            frontier.extend(gc.get_referents(obj))
        assert len(seen) > len(memo)  # the walk did reach the entries

    def test_concurrent_planners_share_one_memo(self):
        """More threads than cores hammer one small-keyed memo; a lost
        update would break hits + misses == lookups or the bound."""
        memo = RestrictionMemo()
        numbers = ((0.0, 1.0), ((1.0, 2.0, 3.0, (0.0,) * 6),))
        lookups, errors = 2000, []

        def worker(offset):
            # two readers of different inputs: entries also get dropped
            inputs = (offset % 2, "rows")
            try:
                for i in range(lookups):
                    key = ("k", (i * 7 + offset) % (memo.CAPACITY + 50))
                    if memo.lookup(key, inputs) is None:
                        memo.store(key, inputs, numbers)
                    assert len(memo) <= memo.CAPACITY
            except Exception as exc:  # surfaced below, on the main thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert memo.hits + memo.misses == 8 * lookups
        assert len(memo) <= memo.CAPACITY


def test_metrics_count_hits_and_misses_per_planner():
    db = fresh_empdept(SMALL)
    _, first = db.plan(MOTIVATING_QUERY)
    _, second = db.plan(MOTIVATING_QUERY)
    assert (first.metrics.restriction_memo_hits,
            first.metrics.restriction_memo_misses) == (0, 6)
    assert (second.metrics.restriction_memo_hits,
            second.metrics.restriction_memo_misses) == (6, 0)
    # nested_optimizations counts runs that happened: the view's full
    # computation plus one deferred template per filter join that won
    assert second.metrics.nested_optimizations \
        < first.metrics.nested_optimizations
    assert second.metrics.nested_optimizations <= 3
    totals = db.metrics()
    assert totals["planner_restriction_memo_hits_total"]["total"] == 6
    assert totals["planner_restriction_memo_misses_total"]["total"] == 6


def test_search_trace_plans_cold():
    db = fresh_empdept(SMALL)
    _, first = db.plan(MOTIVATING_QUERY)
    _, traced = db.plan(MOTIVATING_QUERY, search=OptimizerTrace())
    assert traced.metrics.nested_optimizations \
        == first.metrics.nested_optimizations
    assert traced.metrics.restriction_memo_hits == 0
