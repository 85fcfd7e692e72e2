"""Tests for the Section-4.2 parametric inner costing."""

import pytest

from repro import OptimizerConfig
from repro.optimizer.parametric import ParametricInnerCoster
from repro.optimizer.planner import Planner
from repro.optimizer.plans import PlanNode
from repro.rewrite.magic import RestrictedInner
from repro.workloads import MOTIVATING_QUERY


class _FakePlan(PlanNode):
    def __init__(self, cost, rows):
        from repro.storage.schema import Schema
        super().__init__(Schema(()))
        self.est_cost = cost
        self.est_rows = rows


def make_coster(num_classes=4, enabled=True, domain=1000.0,
                cost_fn=lambda f: 10 + f, rows_fn=lambda f: 2 * f):
    calls = []

    def builder(assumed_rows, assumed_sel):
        calls.append(assumed_rows)
        from repro.storage.schema import Schema
        return RestrictedInner(assumed_rows, None, Schema(()), [])

    def plan_fn(block_marker):
        # block_marker is the assumed_rows smuggled through builder
        f = float(block_marker)
        return _FakePlan(cost_fn(f), rows_fn(f))

    coster = ParametricInnerCoster(builder, plan_fn, domain,
                                   num_classes=num_classes,
                                   enabled=enabled)
    coster.param_id = "t"
    coster._calls = calls
    return coster


class TestAnchors:
    def test_anchor_count_matches_classes(self):
        coster = make_coster(num_classes=4)
        assert len(coster.anchor_cardinalities()) == 4

    def test_anchors_span_domain_geometrically(self):
        coster = make_coster(num_classes=4, domain=1000.0)
        anchors = coster.anchor_cardinalities()
        assert anchors[0] == 1
        assert anchors[-1] == 1000
        assert anchors == sorted(anchors)

    def test_classes_planned_once(self):
        coster = make_coster()
        coster.estimate(10)
        coster.estimate(500)
        coster.estimate(3)
        assert coster.nested_optimizations == 4  # one per class only

    def test_knob_controls_nested_optimizations(self):
        small = make_coster(num_classes=2)
        large = make_coster(num_classes=8)
        small.estimate(10)
        large.estimate(10)
        assert small.nested_optimizations == 2
        assert large.nested_optimizations == 8


class TestLineFit:
    def test_linear_rows_recovered_exactly(self):
        coster = make_coster(rows_fn=lambda f: 3 * f + 7)
        _, rows = coster.estimate(250)
        assert rows == pytest.approx(3 * 250 + 7, rel=0.01)

    def test_rows_never_negative(self):
        coster = make_coster(rows_fn=lambda f: 0.0)
        _, rows = coster.estimate(10)
        assert rows >= 0.0

    def test_cost_interpolates_between_classes(self):
        coster = make_coster(cost_fn=lambda f: f, domain=1000.0)
        coster.ensure_classes()
        anchors = sorted(c.anchor_rows for c in coster.classes)
        midpoint = (anchors[1] + anchors[2]) / 2
        cost, _ = coster.estimate(midpoint)
        # linear cost function -> interpolation recovers it exactly
        assert cost == pytest.approx(midpoint)

    def test_cost_clamps_outside_grid(self):
        coster = make_coster(cost_fn=lambda f: f, domain=1000.0)
        coster.ensure_classes()
        anchors = sorted(c.anchor_rows for c in coster.classes)
        low_cost, _ = coster.estimate(0.5)
        high_cost, _ = coster.estimate(10 * anchors[-1])
        assert low_cost == pytest.approx(anchors[0])
        assert high_cost == pytest.approx(anchors[-1])

    def test_disabled_mode_replans_every_call(self):
        coster = make_coster(enabled=False)
        coster.estimate(10)
        coster.estimate(20)
        coster.estimate(30)
        assert coster.nested_optimizations == 3

    def test_disabled_mode_plans_once_per_costing_call(self):
        """Exact mode used to plan a size for ``estimate`` and again for
        the ``template_for`` that follows it (49 nested optimizations
        for the 24 costing calls of the Figure-1 query)."""
        coster = make_coster(enabled=False)
        cost, _rows = coster.estimate(10)
        template = coster.template_for(10)
        assert coster.nested_optimizations == 1
        assert template.est_cost == cost
        coster.estimate(10)  # the next candidate is costed afresh
        assert coster.nested_optimizations == 2

    def test_disabled_mode_exact(self):
        coster = make_coster(enabled=False, cost_fn=lambda f: f * 2,
                             rows_fn=lambda f: f + 1)
        cost, rows = coster.estimate(17)
        assert cost == 34
        assert rows == 18


class TestIntegrationWithPlanner:
    def test_coster_cached_per_view_and_columns(self, empdept_db):
        _, planner = empdept_db.plan(MOTIVATING_QUERY)
        keys = list(planner._costers)
        assert len(keys) == len(set(keys))
        # exact + lossy variants for the view, plus stored semi-joins
        assert any(k[2] is False for k in keys)

    def test_nested_optimizations_bounded(self, empdept_db):
        config = OptimizerConfig(parametric_classes=3)
        _, planner = empdept_db.plan(MOTIVATING_QUERY, config)
        # each coster plans at most 3 anchors; a handful of costers exist
        per_coster = [c.nested_optimizations
                      for c in planner._costers.values()]
        assert all(n <= 3 for n in per_coster)

    def test_exact_mode_runs_one_nested_optimization_per_costing_call(
            self, empdept_db):
        config = OptimizerConfig(enable_parametric=False)
        planner = Planner(empdept_db.catalog, config)
        planner.plan(empdept_db.bind(MOTIVATING_QUERY))
        costing_calls = sum(c.estimate_calls
                            for c in planner._costers.values())
        # + 1: the view's full computation
        assert planner.metrics.nested_optimizations <= costing_calls + 1

    def test_template_matches_estimate_class(self, empdept_db):
        _, planner = empdept_db.plan(MOTIVATING_QUERY)
        for coster in planner._costers.values():
            if not coster.classes:
                continue
            template = coster.template_for(1.0)
            assert template is coster.classes[0].plan
