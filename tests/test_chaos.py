"""Chaos property: under ANY fault schedule, a distributed query either
returns exactly the fault-free result or raises a typed ReproError.

This is the acceptance test for the resilience layer. Two hundred
seeded schedules derive a random :class:`FaultPlan` (drop / truncate /
latency rates, hard-down sites, transient fail-first bursts) and an
optional per-query deadline, then run a three-site join and check:

- **no wrong answers** — any rows returned match the fault-free
  baseline exactly;
- **no raw exceptions** — every failure is a ``ReproError`` subclass
  (``QueryTimeout`` or ``SiteUnavailable``);
- **no hangs** — deadlines use the simulated clock, so even a
  30-second latency schedule finishes in milliseconds.

The sweep also asserts (once, over the whole run) that the three
interesting regimes all occurred: clean success under faults
(retry-then-succeed), deadline aborts, and site-down degradation that
fell back to a live placement and still produced exact rows.
"""

import os
import random

import pytest

from repro import (DataType, Options, QueryTimeout, ReproError,
                   SiteUnavailable)
from repro.distributed import (
    DistributedDatabase,
    FaultPlan,
    RetryPolicy,
    distributed_config,
)

QUERY = ("SELECT L.v, W.w FROM Local L, East E, West W "
         "WHERE L.k = E.k AND E.e = W.e")

# CI's dedicated chaos job runs a quick sweep (CHAOS_SCHEDULES=10);
# the default in-tree run covers the full 200.
N_SCHEDULES = int(os.environ.get("CHAOS_SCHEDULES", "200"))


def build_db():
    rng = random.Random(41)
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


@pytest.fixture(scope="module")
def db():
    return build_db()


@pytest.fixture(scope="module")
def baseline(db):
    return sorted(db.sql(QUERY).rows)


def restore(db):
    """Reset site status and fault injection between schedules."""
    for site in list(db.down_sites):
        db.mark_site_up(site)
    db.set_fault_plan(None)
    db.network.retry_policy = RetryPolicy()
    db.degradation_events.clear()


def schedule_for_seed(seed):
    """Derive a fault plan + optional deadline from one seed."""
    rng = random.Random(seed)
    kwargs = {}
    if rng.random() < 0.6:
        kwargs["drop_rate"] = rng.choice([0.01, 0.05, 0.2, 0.6])
    if rng.random() < 0.4:
        kwargs["truncate_rate"] = rng.choice([0.01, 0.1, 0.4])
    if rng.random() < 0.5:
        kwargs["latency_rate"] = rng.choice([0.05, 0.3, 1.0])
        kwargs["latency_seconds"] = rng.choice([0.01, 0.25, 2.0, 30.0])
    if rng.random() < 0.2:
        kwargs["down_sites"] = frozenset(
            rng.sample(["east", "west"], rng.choice([1, 1, 2])))
    if rng.random() < 0.3:
        kwargs["fail_first"] = {rng.choice(["east", "west"]):
                                rng.choice([1, 2, 3, 10])}
    timeout = rng.choice([None, None, None, 0.05, 0.5, 5.0])
    use_cache = rng.random() < 0.5
    return FaultPlan(**kwargs), timeout, use_cache


# Shared across the parametrized sweep so the final test can assert all
# three regimes occurred at least once.
OUTCOMES = {"clean_under_faults": 0, "timeout": 0,
            "degraded_exact": 0, "unavailable": 0}


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_chaos_schedule(db, baseline, seed):
    plan, timeout, use_cache = schedule_for_seed(seed)
    restore(db)
    db.set_fault_plan(plan, seed=seed)
    try:
        result = db.sql(QUERY,
                        options=Options(timeout=timeout, use_cache=use_cache))
    except QueryTimeout:
        OUTCOMES["timeout"] += 1
    except SiteUnavailable:
        OUTCOMES["unavailable"] += 1
    except ReproError as exc:  # pragma: no cover - would be a bug
        pytest.fail("unexpected typed error %r under seed %d"
                    % (exc, seed))
    else:
        # The chaos property: rows are exactly the fault-free answer.
        assert sorted(result.rows) == baseline, \
            "wrong answer under fault schedule seed %d" % seed
        if db.degradation_events:
            OUTCOMES["degraded_exact"] += 1
        elif plan.active:
            OUTCOMES["clean_under_faults"] += 1
    finally:
        restore(db)


def test_all_regimes_exercised():
    """Runs after the sweep: the 200 schedules must have hit every
    interesting regime at least once."""
    if N_SCHEDULES < 200:
        pytest.skip("regime coverage is only asserted on the full sweep")
    assert OUTCOMES["clean_under_faults"] > 0, OUTCOMES
    assert OUTCOMES["timeout"] > 0, OUTCOMES
    assert OUTCOMES["degraded_exact"] > 0, OUTCOMES


# ------------------------------------------------- targeted regressions

def test_retry_then_succeed_exact_rows(db, baseline):
    """Transient drops are retried behind the caller's back: the query
    succeeds with exact rows and the retries show up in the stats."""
    restore(db)
    db.set_fault_plan(FaultPlan(fail_first={"east": 2}), seed=0)
    result = db.sql(QUERY)
    assert sorted(result.rows) == baseline
    assert db.network.stats.retries >= 2
    assert not db.degradation_events
    restore(db)


def test_deadline_abort_is_prompt_and_typed(db):
    """A schedule of 30-second latency spikes against a 0.2s deadline
    aborts with QueryTimeout — instantly, because the clock is
    simulated."""
    restore(db)
    db.set_fault_plan(FaultPlan(latency_rate=1.0, latency_seconds=30.0),
                      seed=0)
    with pytest.raises(QueryTimeout) as exc_info:
        db.sql(QUERY, options=Options(timeout=0.2))
    assert exc_info.value.elapsed >= 0.2
    restore(db)


def test_site_down_reoptimizes_to_replica(db, baseline):
    """When the primary site dies mid-query, degradation re-optimizes
    onto the registered replica — a live placement — and the rows are
    exact."""
    restore(db)
    db.add_replica("East", "west")
    db.set_fault_plan(FaultPlan(down_sites=frozenset({"east"})), seed=0)
    result = db.sql(QUERY)
    assert sorted(result.rows) == baseline
    assert [e.site for e in db.degradation_events] == ["east"]
    assert "west" in db.degradation_events[0].fallback_sites
    assert db.site_of("East") == "west"
    restore(db)
    assert db.site_of("East") == "east"


def test_site_down_schedule_with_cached_plan(db, baseline):
    """A cached plan must never ship to a site that has since died:
    warm the cache fault-free, kill the site, re-run with the cache on
    — the tables' effective site moved, which forces a re-plan, and
    the rows stay exact."""
    restore(db)
    db.sql(QUERY, options=Options(use_cache=True))
    db.set_fault_plan(FaultPlan(down_sites=frozenset({"east"})), seed=0)
    result = db.sql(QUERY, options=Options(use_cache=True))
    assert sorted(result.rows) == baseline
    assert db.degradation_events
    restore(db)


# -------------------------------- site failure mid-transaction regime

def test_transient_site_failure_mid_txn_is_invisible():
    """A transient site failure during a query inside an explicit
    transaction is retried behind the caller's back — the transaction is
    NOT aborted (internal retries are not user-visible statement
    failures) and COMMIT keeps everything."""
    db = build_db()
    clean = sorted(db.sql(QUERY).rows)
    db.sql("BEGIN")
    db.insert("Local", [(999, 999)])
    db.set_fault_plan(FaultPlan(fail_first={"east": 2}), seed=0)
    result = db.sql(QUERY)
    assert sorted(result.rows) == clean
    status = db.txn.status()
    assert status["active"] and not status["aborted"], status
    db.sql("COMMIT")
    assert (999, 999) in db.catalog.table("Local").rows


def test_site_down_mid_txn_degrades_and_commit_succeeds():
    """The primary site dies in the middle of an explicit transaction:
    the coordinator degrades onto the replica, the transaction stays
    usable, and the commit lands — with the degradation recorded."""
    db = build_db()
    clean = sorted(db.sql(QUERY).rows)
    db.add_replica("East", "west")
    db.sql("BEGIN")
    db.insert("Local", [(777, 777)])
    db.set_fault_plan(FaultPlan(down_sites=frozenset({"east"})), seed=0)
    result = db.sql(QUERY)
    assert sorted(result.rows) == clean
    status = db.txn.status()
    assert status["active"] and not status["aborted"], status
    assert [e.site for e in db.degradation_events] == ["east"]
    db.sql("COMMIT")
    assert (777, 777) in db.catalog.table("Local").rows


def test_rollback_after_site_failure_mid_txn_is_clean():
    """ROLLBACK after a mid-transaction site failure undoes the
    transaction's writes completely; the degradation bookkeeping (a
    coordinator-level fact, not transactional state) survives."""
    db = build_db()
    before = list(db.catalog.table("Local").rows)
    db.add_replica("East", "west")
    db.sql("BEGIN")
    db.insert("Local", [(555, 555)])
    db.set_fault_plan(FaultPlan(down_sites=frozenset({"east"})), seed=0)
    db.sql(QUERY)
    db.sql("ROLLBACK")
    assert db.catalog.table("Local").rows == before
    assert db.degradation_events
    status = db.txn.status()
    assert not status["active"] and not status["aborted"], status


# ------------------------------------- recursive fixpoint under chaos

from repro import FixpointLimitExceeded  # noqa: E402
from repro.workloads import GraphConfig, build_graph, tc_query  # noqa: E402

RECURSIVE_QUERY = tc_query("WHERE x = 1")
N_RECURSIVE = max(10, N_SCHEDULES // 4)


def build_recursive_db():
    db = DistributedDatabase(distributed_config(2.0, 0.005))
    build_graph(db, GraphConfig("tree", num_nodes=30, branching=3),
                site="west")
    return db


@pytest.fixture(scope="module")
def rec_db():
    return build_recursive_db()


@pytest.fixture(scope="module")
def rec_baseline(rec_db):
    return sorted(rec_db.sql(RECURSIVE_QUERY).rows)


REC_OUTCOMES = {"exact_under_faults": 0, "timeout": 0, "degraded_exact": 0}


@pytest.mark.parametrize("seed", range(N_RECURSIVE))
def test_chaos_recursive_schedule(rec_db, rec_baseline, seed):
    """The chaos property extended to fixpoints: a distributed
    transitive-closure query under any fault schedule returns exactly
    the fault-free closure or raises a typed error — never a wrong or
    partial closure, even when a site dies between iterations."""
    plan, timeout, use_cache = schedule_for_seed(seed + 5_000)
    restore(rec_db)
    rec_db.set_fault_plan(plan, seed=seed)
    try:
        result = rec_db.sql(RECURSIVE_QUERY, options=Options(
            timeout=timeout, use_cache=use_cache))
    except QueryTimeout:
        REC_OUTCOMES["timeout"] += 1
    except (SiteUnavailable, FixpointLimitExceeded):
        pass
    except ReproError as exc:  # pragma: no cover - would be a bug
        pytest.fail("unexpected typed error %r under seed %d" % (exc, seed))
    else:
        assert sorted(result.rows) == rec_baseline, \
            "wrong closure under fault schedule seed %d" % seed
        if rec_db.degradation_events:
            REC_OUTCOMES["degraded_exact"] += 1
        elif plan.active:
            REC_OUTCOMES["exact_under_faults"] += 1
    finally:
        restore(rec_db)


def test_recursive_regimes_exercised():
    if N_SCHEDULES < 200:
        pytest.skip("regime coverage is only asserted on the full sweep")
    assert REC_OUTCOMES["exact_under_faults"] > 0, REC_OUTCOMES
    assert REC_OUTCOMES["timeout"] > 0, REC_OUTCOMES


def test_deadline_interrupts_fixpoint_iterations(rec_db):
    """A latency storm against a short deadline must abort the fixpoint
    *between row batches inside an iteration*, not only at iteration
    boundaries — the deadline check rides the per-row CPU charge."""
    restore(rec_db)
    rec_db.set_fault_plan(FaultPlan(latency_rate=1.0, latency_seconds=30.0),
                          seed=0)
    with pytest.raises(QueryTimeout) as exc_info:
        rec_db.sql(RECURSIVE_QUERY, options=Options(timeout=0.2))
    assert exc_info.value.elapsed >= 0.2
    restore(rec_db)


def test_site_down_recursive_degrades_to_exact_rows(rec_db, rec_baseline):
    restore(rec_db)
    rec_db.set_fault_plan(FaultPlan(down_sites=frozenset({"west"})), seed=0)
    result = rec_db.sql(RECURSIVE_QUERY)
    assert sorted(result.rows) == rec_baseline
    assert [e.site for e in rec_db.degradation_events] == ["west"]
    restore(rec_db)
