"""The adaptive maintenance loop: drift in, re-analyze out.

Mechanics first — the policy's gates (disabled, min_samples, cooldown,
open transaction) each provably block the action — then the feedback
effects (new statistics, plan-cache shedding, drift window reset),
and finally the end-to-end narrative: the seeded drift workload's plan
flips to a hash join when the data shifts under stale statistics and
flips *back* to the paper's filter join after the loop re-analyzes,
pinned byte-for-byte in ``tests/golden/adaptive__narrative.txt``.
"""

import pathlib

import pytest

from repro import Database, DataType, Options
from repro.obs.adaptive import AdaptivePolicy
from repro.workloads import run_drift_narrative

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: a policy eager enough for small unit-test tables
EAGER = AdaptivePolicy(qerror_threshold=4.0, min_samples=3,
                       cooldown_queries=0)


def make_stale_db():
    """A table whose statistics say 20 rows while it really holds
    1020 — every scan records a ~51x q-error."""
    db = Database()
    db.create_table("T", [("a", DataType.INT), ("b", DataType.INT)])
    db.insert("T", [(i, i % 7) for i in range(20)])
    db.analyze()
    db.insert("T", [(i, i % 7) for i in range(20, 1020)])
    return db


def probe(db, policy=EAGER, n=1, **extra):
    opts = Options(adaptive=policy, **extra)
    for _ in range(n):
        db.sql("SELECT a FROM T WHERE b = 3", options=opts)


class TestPolicyValidation:
    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(qerror_threshold=0.5)

    def test_min_samples_positive(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(min_samples=0)

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(cooldown_queries=-1)

    def test_coerce_bool_shorthand(self):
        assert AdaptivePolicy.coerce(True).enabled
        assert not AdaptivePolicy.coerce(False).enabled
        policy = AdaptivePolicy(qerror_threshold=2.0)
        assert AdaptivePolicy.coerce(policy) is policy
        with pytest.raises(TypeError):
            AdaptivePolicy.coerce("yes")

    def test_options_coerce_bool_to_policy(self):
        opts = Options(adaptive=True)
        assert isinstance(opts.adaptive, AdaptivePolicy)
        assert opts.adaptive.enabled

    def test_builtin_default_is_off(self):
        assert not Options().resolved().adaptive.enabled


class TestAdaptiveGates:
    def test_disabled_policy_is_inert(self):
        db = make_stale_db()
        stats = db.catalog.stats_entry("T")
        probe(db, policy=AdaptivePolicy.OFF, n=6)
        assert not db.adaptive.actions
        assert db.catalog.stats_entry("T") is stats
        metrics = db.metrics()
        assert "adaptive_reanalyze_total" not in metrics
        assert "adaptive_skips_total" not in metrics

    def test_default_options_take_no_action(self):
        db = make_stale_db()
        stats = db.catalog.stats_entry("T")
        for _ in range(6):
            db.sql("SELECT a FROM T WHERE b = 3")
        assert not db.adaptive.actions
        assert db.catalog.stats_entry("T") is stats

    def test_every_query_feeds_the_policy(self):
        """Plain statements with no other option carry drift samples,
        so the policy alone decides: stale statistics trigger it."""
        db = make_stale_db()
        for _ in range(6):
            db.sql("SELECT a FROM T WHERE b = 3",
                   options=Options(adaptive=EAGER))
        assert [a.table for a in db.adaptive.actions] == ["T"]

    def test_min_samples_gate(self):
        db = make_stale_db()
        picky = AdaptivePolicy(qerror_threshold=4.0, min_samples=50,
                               cooldown_queries=0)
        probe(db, policy=picky, n=6)
        assert not db.adaptive.actions

    def test_threshold_gate(self):
        db = make_stale_db()
        lax = AdaptivePolicy(qerror_threshold=1000.0, min_samples=1,
                             cooldown_queries=0)
        probe(db, policy=lax, n=6)
        assert not db.adaptive.actions

    def test_cooldown_suppresses_back_to_back_actions(self):
        db = make_stale_db()
        cool = AdaptivePolicy(qerror_threshold=4.0, min_samples=1,
                              cooldown_queries=3)
        probe(db, policy=cool, n=1)
        assert len(db.adaptive.actions) == 1
        # keep the table stale: the next 3 queries sit out the
        # cooldown even though their samples are healthy now
        probe(db, policy=cool, n=3)
        assert len(db.adaptive.actions) == 1
        skips = db.metrics()["adaptive_skips_total"]["by_label"]
        assert skips["cooldown"] == 3.0

    def test_open_transaction_skips(self):
        db = make_stale_db()
        db.sql("BEGIN")
        probe(db, n=4)
        assert not db.adaptive.actions
        skips = db.metrics()["adaptive_skips_total"]["by_label"]
        assert skips["open_txn"] == 4.0
        db.sql("ROLLBACK")
        probe(db, n=1)
        assert len(db.adaptive.actions) == 1


class TestAdaptiveAction:
    def test_action_reanalyzes_and_records(self):
        db = make_stale_db()
        db.event_log.enable()
        stats = db.catalog.stats_entry("T")
        probe(db, n=3)
        assert len(db.adaptive.actions) == 1
        action = db.adaptive.actions[0]
        assert action.table == "T"
        assert action.before_q > 4.0
        assert action.after_q is not None and action.after_q < 2.0
        assert db.catalog.stats_entry("T") is not stats
        events = db.event_log.events("adaptive_reanalyze")
        assert len(events) == 1
        assert events[0]["table"] == "T"
        assert events[0]["before_q"] > events[0]["after_q"]
        total = db.metrics()["adaptive_reanalyze_total"]
        assert total["by_label"]["T"] == 1.0

    def test_action_drops_stale_drift_samples(self):
        db = make_stale_db()
        probe(db, n=3)
        report = db.drift_report()
        tables = {t.table: t for t in report.tables}
        # the stale-era samples are gone; only post-action samples (if
        # any) remain, and they are healthy
        if "T" in tables:
            assert tables["T"].mean_q_error < 4.0

    def test_action_invalidates_cached_plans(self):
        db = make_stale_db()
        opts = Options(adaptive=EAGER, use_cache=True)
        for _ in range(6):
            db.sql("SELECT a FROM T WHERE b = 3", options=opts)
            if db.adaptive.actions:
                break
        assert len(db.adaptive.actions) == 1
        # the plan cached before the action read the old statistics:
        # the next lookup must shed it (an
        # invalidation + miss), and only the re-planned entry may hit
        invalidations_before = db.plan_cache.invalidations
        result = db.sql("SELECT a FROM T WHERE b = 3", options=opts)
        assert not result.cached_plan
        assert db.plan_cache.invalidations == invalidations_before + 1
        again = db.sql("SELECT a FROM T WHERE b = 3", options=opts)
        assert again.cached_plan

    def test_history_and_render(self):
        db = make_stale_db()
        probe(db, n=3)
        history = db.adaptive.history()
        assert [a.table for a in history] == ["T"]
        assert "T" in db.adaptive.render()
        assert "before q" in db.adaptive.render()
        empty = Database()
        assert "no adaptive actions" in empty.adaptive.render()


class TestDriftNarrative:
    def test_narrative_golden(self, update_golden):
        lines, db = run_drift_narrative()
        text = "\n".join(lines) + "\n"
        golden_path = GOLDEN_DIR / "adaptive__narrative.txt"
        if update_golden:
            golden_path.write_text(text)
            return
        assert golden_path.exists(), (
            "missing %s — run with --update-golden" % golden_path)
        assert text == golden_path.read_text(), (
            "the drift narrative changed; if intentional, refresh with "
            "`pytest tests/test_adaptive.py --update-golden`")

    def test_narrative_recovers_and_flips_plans(self):
        lines, db = run_drift_narrative()
        text = "\n".join(lines)
        # the plan must actually change across the narrative: the
        # paper's filter join at baseline, a hash join under the
        # shifted distribution, and the filter join again at the end
        assert "plan: filter_join:" in text
        assert "plan (fresh stats): hash:" in text
        assert lines[-1].startswith("recovered: yes")
        # exactly two adaptive actions, both on Customers
        total = db.metrics()["adaptive_reanalyze_total"]
        assert total["by_label"] == {"Customers": 2.0}
