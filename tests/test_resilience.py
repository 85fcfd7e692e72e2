"""Unit tests for the resilience layer: simulated network, fault
injector determinism, retry/backoff, deadlines, memory governor, site
status, replicas, and plan-cache interaction."""

import random

import pytest

from repro import (
    Database,
    DataType,
    Options,
    QueryTimeout,
    ResourceExhausted,
    SiteUnavailable,
)
from repro.distributed import (
    DistributedDatabase,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SimulatedNetwork,
    distributed_config,
)
from repro.executor.runtime import RuntimeContext
from repro.workloads import MOTIVATING_QUERY, fresh_empdept

from tests.conftest import SMALL_EMPDEPT, python_calls


def make_db(rng_seed=41):
    rng = random.Random(rng_seed)
    db = DistributedDatabase(distributed_config(2.0, 0.005))
    db.create_table("Local", [("k", DataType.INT), ("v", DataType.INT)])
    db.create_table("East", [("k", DataType.INT), ("e", DataType.INT)],
                    site="east")
    db.create_table("West", [("e", DataType.INT), ("w", DataType.INT)],
                    site="west")
    db.insert("Local", [(rng.randint(1, 30), i) for i in range(60)])
    db.insert("East", [(k % 40 + 1, k % 12) for k in range(150)])
    db.insert("West", [(e % 12, e) for e in range(80)])
    db.create_index("East", "k")
    db.analyze()
    return db


QUERY = ("SELECT L.v, W.w FROM Local L, East E, West W "
         "WHERE L.k = E.k AND E.e = W.e")


# --------------------------------------------------------------- injector

class TestFaultInjector:
    def test_deterministic_given_seed(self):
        plan = FaultPlan(drop_rate=0.3, truncate_rate=0.2,
                         latency_rate=0.1)
        a = FaultInjector(plan, seed=7)
        b = FaultInjector(plan, seed=7)
        faults_a = [a.next_fault("x", None) for _ in range(200)]
        faults_b = [b.next_fault("x", None) for _ in range(200)]
        assert faults_a == faults_b
        assert any(faults_a)  # some faults actually fired

    def test_reset_replays_schedule(self):
        injector = FaultInjector(FaultPlan(drop_rate=0.5), seed=3)
        first = [injector.next_fault("s", None) for _ in range(50)]
        injector.reset()
        assert [injector.next_fault("s", None) for _ in range(50)] == first

    def test_down_site_always_refuses(self):
        injector = FaultInjector(FaultPlan(down_sites=frozenset({"east"})))
        assert injector.next_fault(None, "east") == "site_down"
        assert injector.next_fault("east", None) == "site_down"
        assert injector.next_fault(None, "west") is None

    def test_fail_first_is_transient(self):
        injector = FaultInjector(FaultPlan(fail_first={"east": 2}))
        assert injector.next_fault(None, "east") == "drop"
        assert injector.next_fault(None, "east") == "drop"
        assert injector.next_fault(None, "east") is None

    def test_site_down_after_counts_deliveries(self):
        injector = FaultInjector(FaultPlan(site_down_after={"east": 2}))
        for _ in range(2):
            assert injector.next_fault(None, "east") is None
            injector.record_delivery(None, "east")
        assert injector.next_fault(None, "east") == "site_down"

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_below_nominal(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.5)
        rng = random.Random(1)
        for n in range(1, 20):
            assert 0.5 <= policy.delay(n, rng) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------- network

class TestSimulatedNetwork:
    def ctx(self, network=None, deadline=None):
        return RuntimeContext(network=network, deadline_seconds=deadline)

    def test_fault_free_accounting_matches_legacy(self):
        """With no injector the network charges exactly what the old
        inline code charged: ceil(bytes/payload) messages."""
        network = SimulatedNetwork()
        ctx_net = self.ctx(network)
        ctx_net.charge_ship(100, 200)  # 20000 bytes, 8192 payload
        ctx_plain = self.ctx()
        ctx_plain.charge_ship(100, 200)
        assert ctx_net.ledger.net_msgs == ctx_plain.ledger.net_msgs == 3
        assert ctx_net.ledger.net_bytes == ctx_plain.ledger.net_bytes

    def test_retries_charge_the_wire(self):
        network = SimulatedNetwork(
            FaultInjector(FaultPlan(fail_first={"east": 2}))
        )
        ctx = self.ctx(network)
        ctx.charge_ship(10, 8, from_site=None, to_site="east")
        # 2 failed attempts + 1 delivery, all on the wire
        assert ctx.ledger.net_msgs == 3
        assert network.stats.retries == 2
        assert network.stats.drops == 2

    def test_retry_budget_exhaustion_raises_site_unavailable(self):
        network = SimulatedNetwork(
            FaultInjector(FaultPlan(drop_rate=1.0)),
            RetryPolicy(max_attempts=3),
        )
        with pytest.raises(SiteUnavailable) as exc_info:
            network.transfer(self.ctx(network), None, "east", 100)
        assert exc_info.value.site == "east"
        assert exc_info.value.attempts == 3

    def test_down_site_raises_without_consuming_wire(self):
        network = SimulatedNetwork(
            FaultInjector(FaultPlan(down_sites=frozenset({"east"})))
        )
        ctx = self.ctx(network)
        with pytest.raises(SiteUnavailable):
            network.transfer(ctx, None, "east", 100)
        assert ctx.ledger.net_msgs == 0

    def test_latency_advances_simulated_clock(self):
        network = SimulatedNetwork(FaultInjector(
            FaultPlan(latency_rate=1.0, latency_seconds=2.0)))
        ctx = self.ctx(network)
        network.transfer(ctx, None, "east", 100)
        assert ctx.simulated_seconds == pytest.approx(2.0)

    def test_backoff_can_trip_the_deadline(self):
        network = SimulatedNetwork(
            FaultInjector(FaultPlan(latency_rate=1.0,
                                    latency_seconds=30.0)))
        ctx = self.ctx(network, deadline=1.0)
        with pytest.raises(QueryTimeout):
            network.transfer(ctx, None, "east", 100)


# --------------------------------------------------------------- deadline

class TestDeadline:
    def test_zero_timeout_aborts(self):
        db = make_db()
        with pytest.raises(QueryTimeout):
            db.sql(QUERY, options=Options(timeout=1e-9))

    def test_generous_timeout_passes(self):
        db = make_db()
        result = db.sql(QUERY, options=Options(timeout=60.0))
        assert len(result.rows) > 0

    def test_default_timeout_on_database(self):
        db = make_db()
        db.configure(timeout=1e-9)
        with pytest.raises(QueryTimeout):
            db.sql(QUERY)
        db.configure(timeout=None)
        assert len(db.sql(QUERY).rows) > 0

    def test_timeout_error_carries_fields(self):
        db = make_db()
        db.set_fault_plan(FaultPlan(latency_rate=1.0,
                                    latency_seconds=10.0), seed=1)
        with pytest.raises(QueryTimeout) as exc_info:
            db.sql(QUERY, options=Options(timeout=0.5))
        assert exc_info.value.timeout == 0.5
        assert exc_info.value.elapsed > 0.5


class TestIdlePlumbing:
    #: Python calls of an armed run over a bare one; armed measured
    #: 1.009x on this workload when the bound was set
    MAX_CALL_RATIO = 1.03

    def test_armed_run_without_faults_costs_almost_nothing(self):
        """A network attached with no fault plan, a deadline and a
        memory budget: the same rows and ledger, and almost no extra
        Python calls (the deadline hook and the memory accounting run
        in coarse chunks; the transport takes its fast path)."""
        bare, armed = fresh_empdept(SMALL_EMPDEPT), fresh_empdept(
            SMALL_EMPDEPT)
        armed.network = SimulatedNetwork()
        armed_options = Options(timeout=3600.0,
                                memory_budget_bytes=1 << 30)

        def runs(db, options):
            for _ in range(3):  # lazy stats, then the plan cache admits
                db.sql(MOTIVATING_QUERY, options=options)
            return python_calls(lambda: [
                db.sql(MOTIVATING_QUERY, options=options)
                for _ in range(5)])

        bare_calls, bare_results = runs(bare, None)
        armed_calls, armed_results = runs(armed, armed_options)
        for plain, guarded in zip(bare_results, armed_results):
            assert guarded.rows == plain.rows
            assert guarded.ledger.as_dict() == plain.ledger.as_dict()
        ratio = len(armed_calls) / len(bare_calls)
        assert ratio <= self.MAX_CALL_RATIO, (
            "armed run made %.3fx the bare run's Python calls (%d vs %d)"
            % (ratio, len(armed_calls), len(bare_calls)))


# ---------------------------------------------------------- memory budget

class TestMemoryGovernor:
    def test_tiny_budget_raises(self):
        db = make_db()
        with pytest.raises(ResourceExhausted):
            db.sql(QUERY, options=Options(memory_budget_bytes=64))

    def test_generous_budget_passes(self):
        db = make_db()
        result = db.sql(QUERY,
                        options=Options(memory_budget_bytes=64 * 1024 * 1024))
        assert len(result.rows) > 0

    def test_budget_from_config(self):
        db = Database()
        db.create_table("T", [("a", DataType.INT)])
        db.insert("T", [(i,) for i in range(5000)])
        db.analyze()
        db.config = db.config.replace(memory_budget_bytes=128)
        with pytest.raises(ResourceExhausted):
            db.sql("SELECT a FROM T ORDER BY a")

    def test_exhaustion_reports_budget(self):
        db = make_db()
        with pytest.raises(ResourceExhausted) as exc_info:
            db.sql(QUERY, options=Options(memory_budget_bytes=64))
        assert exc_info.value.budget_bytes == 64

    def test_memory_released_across_statements(self):
        """Operator working memory is released when iteration ends, so
        consecutive statements each see the full budget."""
        db = make_db()
        budget = 512 * 1024
        for _ in range(5):
            options = Options(memory_budget_bytes=budget)
            assert len(db.sql(QUERY, options=options).rows) > 0


# ------------------------------------------------------------ site status

class TestSiteStatusAndReplicas:
    def test_mark_down_moves_placement_local(self):
        db = make_db()
        assert db.site_of("East") == "east"
        db.mark_site_down("east")
        assert db.site_of("East") is None  # coordinator-local fallback
        db.mark_site_up("east")
        assert db.site_of("East") == "east"

    def test_replica_preferred_over_local_fallback(self):
        db = make_db()
        db.add_replica("East", "west")
        db.mark_site_down("east")
        assert db.site_of("East") == "west"
        db.mark_site_down("west")
        assert db.site_of("East") is None

    def test_site_status_moves_the_inputs_of_its_tables_only(self):
        db = make_db()
        names = ("east", "local", "west")
        before = db.catalog.inputs(names)
        db.mark_site_down("east")
        after = db.catalog.inputs(names)
        assert after[0][-1] is None and before[0][-1] == "east"
        assert after[1:] == before[1:]
        # marking an already-down site down again is a no-op
        db.mark_site_down("east")
        assert db.catalog.inputs(names) == after
        db.mark_site_up("east")
        assert db.catalog.inputs(names) == before

    def test_cached_plan_invalidated_by_site_change(self):
        db = make_db()
        for _ in range(3):  # stored on the second miss, hit on the third
            db.sql(QUERY, options=Options(use_cache=True))
        stats = db.cache_stats()
        assert stats["hits"] >= 1
        db.mark_site_down("east")
        invalidations = db.plan_cache.invalidations
        result = db.sql(QUERY, options=Options(use_cache=True))
        assert db.plan_cache.invalidations > invalidations
        assert len(result.rows) > 0

    def test_degradation_records_event(self):
        db = make_db()
        db.set_fault_plan(FaultPlan(down_sites=frozenset({"east"})))
        baseline = sorted(make_db().sql(QUERY).rows)
        result = db.sql(QUERY)
        assert sorted(result.rows) == baseline
        assert len(db.degradation_events) == 1
        event = db.degradation_events[0]
        assert event.site == "east"
        assert "east" in db.down_sites

    def test_degraded_plan_avoids_dead_site(self):
        db = make_db()
        db.mark_site_down("east")
        plan, _ = db.plan(QUERY)

        def sites(node):
            yield node.site
            yield getattr(node, "from_site", None)
            yield getattr(node, "to_site", None)
            for child in node.children():
                for s in sites(child):
                    yield s

        assert "east" not in set(sites(plan))

    def test_all_sites_down_still_answers_locally(self):
        db = make_db()
        db.set_fault_plan(
            FaultPlan(down_sites=frozenset({"east", "west"})))
        baseline = sorted(make_db().sql(QUERY).rows)
        result = db.sql(QUERY)
        assert sorted(result.rows) == baseline
        assert set(db.down_sites) == {"east", "west"}

    def test_resilience_stats_shape(self):
        db = make_db()
        db.sql(QUERY)
        stats = db.resilience_stats()
        assert stats["messages"] > 0
        assert stats["degradations"] == 0
        assert stats["down_sites"] == []
