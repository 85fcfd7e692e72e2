"""Tests for the distributed substrate (Section 5.1)."""

import random

import pytest

from repro import DataType, OptimizerConfig
from repro.distributed import DistributedDatabase, distributed_config
from repro.distributed.network import FaultPlan, RetryPolicy
from repro.ledger import CostParams


def two_site_db(msg_cost=1.0, byte_cost=0.001, orders=2000, custs=400,
                seed=1):
    rng = random.Random(seed)
    db = DistributedDatabase(distributed_config(msg_cost, byte_cost))
    db.create_table("Orders", [("oid", DataType.INT),
                               ("cid", DataType.INT),
                               ("total", DataType.INT)])
    db.create_table("Cust", [("cid", DataType.INT),
                             ("name", DataType.STR),
                             ("region", DataType.STR)], site="siteB")
    db.insert("Orders", [
        (i, rng.randint(1, custs), rng.randint(1, 1000))
        for i in range(1, orders + 1)
    ])
    db.insert("Cust", [
        (c, "n%d" % c, rng.choice(["east", "west"]))
        for c in range(1, custs + 1)
    ])
    db.analyze()
    return db


def reference(db, cutoff=900):
    orders = db.catalog.table("Orders").rows
    cust = {c: n for (c, n, _r) in db.catalog.table("Cust").rows}
    return sorted(
        (oid, cust[cid]) for (oid, cid, total) in orders
        if total > cutoff and cid in cust
    )


QUERY = ("SELECT O.oid, C.name FROM Orders O, Cust C "
         "WHERE O.cid = C.cid AND O.total > 900")


class TestPlacement:
    def test_site_tracked(self):
        db = two_site_db()
        assert db.site_of("Cust") == "siteB"
        assert db.site_of("Orders") is None
        assert db.sites == ["siteB"]

    def test_place_table_moves(self):
        db = two_site_db()
        db.place_table("Cust", None)
        assert db.site_of("Cust") is None


class TestRemoteQueries:
    def test_remote_scan_ships_result(self):
        db = two_site_db()
        result = db.sql("SELECT cid FROM Cust")
        assert len(result) == 400
        assert result.ledger.net_msgs >= 1
        assert result.ledger.net_bytes > 0

    def test_local_query_no_network(self):
        db = two_site_db()
        result = db.sql("SELECT oid FROM Orders WHERE total > 990")
        assert result.ledger.net_msgs == 0

    def test_cross_site_join_correct(self):
        db = two_site_db()
        result = db.sql(QUERY)
        assert sorted(result.rows) == reference(db)

    def test_cross_site_join_charges_network(self):
        db = two_site_db()
        result = db.sql(QUERY)
        assert result.ledger.net_bytes > 0

    @pytest.mark.parametrize("kwargs", [
        {},
        {"enable_filter_join": False, "enable_bloom_filter": False},
        {"enable_bloom_filter": False},
        {"enable_hash_join": False, "enable_merge_join": False},
    ])
    def test_strategies_agree(self, kwargs):
        db = two_site_db()
        base = distributed_config(2.0, 0.002)
        config = base.replace(**kwargs)
        result = db.sql(QUERY, config=config)
        assert sorted(result.rows) == reference(db)

    def test_expensive_network_prefers_less_shipping(self):
        """When bytes are pricey, the chosen plan should ship less than
        the cheapest plan under free networking would."""
        db = two_site_db()
        cheap_cfg = distributed_config(0.0, 0.0)
        dear_cfg = distributed_config(10.0, 0.05)
        cheap = db.sql(QUERY, config=cheap_cfg)
        dear = db.sql(QUERY, config=dear_cfg)
        assert sorted(cheap.rows) == sorted(dear.rows)
        assert dear.ledger.net_bytes <= cheap.ledger.net_bytes + 1e-9


class TestRemoteSemiJoin:
    def test_semi_join_restricts_before_shipping(self):
        """Force the filter join; the bytes shipped must be below the
        fetch-inner (ship whole Cust) volume."""
        db = two_site_db()
        fetch_inner_cfg = distributed_config(
            1.0, 0.001,
            enable_filter_join=False, enable_bloom_filter=False,
        )
        # make the optimizer prefer restricting the remote side
        semi_cfg = distributed_config(20.0, 0.2)
        fetch = db.sql(QUERY, config=fetch_inner_cfg)
        semi = db.sql(QUERY, config=semi_cfg)
        assert sorted(fetch.rows) == sorted(semi.rows)

    def test_remote_view_join(self):
        """A view over a remote table is itself remote; joining it stays
        correct whatever strategy is picked."""
        db = two_site_db()
        db.create_view(
            "CustOrders",
            "SELECT C.cid, COUNT(*) AS n FROM Cust C GROUP BY C.cid",
        )
        q = ("SELECT O.oid, V.n FROM Orders O, CustOrders V "
             "WHERE O.cid = V.cid AND O.total > 950")
        result = db.sql(q)
        orders = db.catalog.table("Orders").rows
        counts = {}
        for (c, _n, _r) in db.catalog.table("Cust").rows:
            counts[c] = counts.get(c, 0) + 1
        expected = sorted(
            (oid, counts[cid]) for (oid, cid, total) in orders
            if total > 950 and cid in counts
        )
        assert sorted(result.rows) == expected


class TestPreparedFailover:
    def test_prepared_join_fails_over_like_the_ad_hoc_text(self):
        """The inner site dies: a prepared execution degrades the same
        way db.sql does (one DegradationEvent, the site marked down,
        re-optimized against the fallback copy) instead of raising."""
        ad_hoc = two_site_db()
        prepared = two_site_db()
        handle = prepared.prepare(
            QUERY.replace("O.total > 900", "O.total > ?"))
        for db in (ad_hoc, prepared):
            db.set_fault_plan(FaultPlan(down_sites=frozenset({"siteB"})),
                              seed=1,
                              retry_policy=RetryPolicy(max_attempts=2))
        expected = ad_hoc.sql(QUERY).rows
        result = handle.execute([900])
        assert sorted(result.rows) == sorted(expected) == reference(prepared)
        assert prepared.down_sites == ["siteB"]
        (event,) = prepared.degradation_events
        assert event.site == "siteB"
        # the failed attempt and the retry are two records
        statuses = [r.status for r in prepared.querylog.recent(2)]
        assert statuses == ["ok", "error"]
