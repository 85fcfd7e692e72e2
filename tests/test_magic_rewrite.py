"""Tests for the magic-sets rewriter (Figure 2) and restricted blocks."""

import pytest

from repro import OptimizerConfig
from repro.algebra.relations import FilterSetRelation
from repro.errors import PlanError
from repro.expr.nodes import RuntimeMembership
from repro.optimizer.planner import Planner
from repro.rewrite.magic import (
    bindable_columns,
    magic_rewrite,
    restricted_block,
)
from repro.workloads import MOTIVATING_QUERY

from tests.conftest import reference_motivating_answer


@pytest.fixture()
def block(empdept_db):
    return empdept_db.bind(MOTIVATING_QUERY)


class TestBindableColumns:
    def test_grouped_view_exposes_group_column(self, block):
        view = block.relation("V")
        mapping = bindable_columns(view.block)
        assert mapping == {"did": "E.did"}

    def test_spj_view(self, empdept_db):
        empdept_db_block = empdept_db.bind(
            "SELECT x.did FROM (SELECT did, budget FROM Dept) x"
        )
        mapping = bindable_columns(empdept_db_block.relations[0].block)
        assert mapping == {"did": "Dept.did", "budget": "Dept.budget"}

    def test_computed_output_not_bindable(self, empdept_db):
        q = "SELECT x.s FROM (SELECT sal + 1 AS s FROM Emp) x"
        mapping = bindable_columns(empdept_db.bind(q).relations[0].block)
        assert mapping == {}

    def test_aggregate_output_not_bindable(self, block):
        view = block.relation("V")
        assert "avgsal" not in bindable_columns(view.block)


class TestRestrictedViewBlock:
    def test_adds_filter_relation_and_predicate(self, block):
        view = block.relation("V")
        restricted = restricted_block(view, ["did"], "p1", lossy=False)
        kinds = [r.kind for r in restricted.block.relations]
        assert kinds[0] == "filterset"
        assert any("_F.did = E.did" in p.display()
                   for p in restricted.block.predicates)

    def test_same_output_schema(self, block):
        view = block.relation("V")
        restricted = restricted_block(view, ["did"], "p1", lossy=False)
        assert restricted.block.output_schema().names() == \
            view.block.output_schema().names()

    def test_unbindable_column_rejected(self, block):
        view = block.relation("V")
        with pytest.raises(PlanError):
            restricted_block(view, ["avgsal"], "p1", lossy=False)

    def test_lossy_uses_membership_predicate(self, block):
        view = block.relation("V")
        restricted = restricted_block(view, ["did"], "p1", lossy=True,
                                      assumed_selectivity=0.3)
        membership = [p for p in restricted.block.predicates
                      if isinstance(p, RuntimeMembership)]
        assert len(membership) == 1
        assert membership[0].assumed_selectivity == 0.3
        # no filter-set relation joins the body in the lossy variant
        assert all(r.kind != "filterset" for r in restricted.block.relations)


class TestRestrictedStoredBlock:
    def test_semi_join_block_shape(self, block):
        dept = block.relation("D")
        restricted = restricted_block(dept, ["did"], "p2", lossy=False)
        assert [r.kind for r in restricted.block.relations] == [
            "filterset", "stored",
        ]
        out = restricted.block.output_schema().names()
        assert out == ["did", "budget"]

    def test_local_predicates_pushed(self, block):
        dept = block.relation("D")
        extra = [p for p in block.predicates
                 if p.display() == "D.budget > 100000"]
        restricted = restricted_block(dept, ["did"], "p2", lossy=False,
                                      local_predicates=extra)
        assert any("budget" in p.display()
                   for p in restricted.block.predicates)

    def test_lossy_stored(self, block):
        dept = block.relation("D")
        restricted = restricted_block(dept, ["did"], "p3", lossy=True)
        assert isinstance(restricted.block.predicates[0], RuntimeMembership)

    def test_empty_bound_columns_rejected(self, block):
        dept = block.relation("D")
        with pytest.raises(PlanError):
            restricted_block(dept, [], "p", lossy=False)


class TestMagicRewrite:
    def test_figure2_structure(self, block):
        rewriting = magic_rewrite(block, "V")
        sql = rewriting.sql()
        assert "PartialResult" in sql
        assert "FilterSet" in sql
        assert "RestrictedView" in sql
        assert "DISTINCT" in sql
        assert rewriting.bound_columns == ["did"]

    def test_rewritten_query_equivalent(self, empdept_db, block):
        rewriting = magic_rewrite(block, "V")
        planner = Planner(empdept_db.catalog, OptimizerConfig())
        plan = planner.plan(rewriting.final_block)
        result = empdept_db.run_plan(plan)
        assert sorted(result.rows) == reference_motivating_answer(empdept_db)

    def test_sips_production_subset_dept_only(self, empdept_db, block):
        """Join order 3 of Figure 3: filter from big departments only."""
        rewriting = magic_rewrite(block, "V", production_aliases=["D"])
        planner = Planner(empdept_db.catalog, OptimizerConfig())
        plan = planner.plan(rewriting.final_block)
        result = empdept_db.run_plan(plan)
        assert sorted(
            (r[0], r[1], r[2]) for r in result.rows
        ) == reference_motivating_answer(empdept_db)

    def test_sips_production_subset_emp_only(self, empdept_db, block):
        """Join order 4: filter from young employees only."""
        rewriting = magic_rewrite(block, "V", production_aliases=["E"])
        planner = Planner(empdept_db.catalog, OptimizerConfig())
        plan = planner.plan(rewriting.final_block)
        result = empdept_db.run_plan(plan)
        assert sorted(result.rows) == reference_motivating_answer(empdept_db)

    def test_rewrite_of_non_view_rejected(self, block):
        with pytest.raises(PlanError):
            magic_rewrite(block, "E")

    def test_unknown_production_alias_rejected(self, block):
        with pytest.raises(PlanError):
            magic_rewrite(block, "V", production_aliases=["Z"])

    def test_rewritten_sql_reparses(self, empdept_db, block):
        """The emitted SQL text must itself be executable."""
        rewriting = magic_rewrite(block, "V")
        script_db = empdept_db
        # register the rewriting's views under fresh names and run it
        for name, blk in [
            ("PartialResult", rewriting.partial_result),
            ("FilterSet", rewriting.filter_block),
            ("RestrictedView", rewriting.restricted_view),
        ]:
            script_db.catalog.create_view(name, blk.display_sql())
        try:
            result = script_db.sql(rewriting.final_block.display_sql())
            assert sorted(result.rows) == \
                reference_motivating_answer(script_db)
        finally:
            for name in ("PartialResult", "FilterSet", "RestrictedView"):
                script_db.catalog.drop_view(name)


class TestFilterAliasCollision:
    def test_user_alias_underscore_f_does_not_collide(self, empdept_db):
        """A view body using the alias _F must not break the filter
        join's internal filter-set relation."""
        empdept_db.create_view(
            "WeirdAlias",
            "SELECT _F.did, AVG(_F.sal) AS avgsal FROM Emp _F "
            "GROUP BY _F.did",
        )
        from repro import OptimizerConfig
        try:
            result = empdept_db.sql(
                "SELECT D.did, V.avgsal FROM Dept D, WeirdAlias V "
                "WHERE D.did = V.did AND D.budget > 100000",
                config=OptimizerConfig(forced_view_join="filter_join"),
            )
            baseline = empdept_db.sql(
                "SELECT D.did, V.avgsal FROM Dept D, WeirdAlias V "
                "WHERE D.did = V.did AND D.budget > 100000",
                config=OptimizerConfig(forced_view_join="full"),
            )
            assert sorted(result.rows) == sorted(baseline.rows)
        finally:
            empdept_db.catalog.drop_view("WeirdAlias")


class TestRecursiveViewRejection:
    def test_figure2_rewrite_of_recursive_view_is_typed_error(self):
        """Figure-2 magic rewriting is defined over non-recursive views;
        applying it to a recursive view must raise the typed
        RecursiveViewError (not a generic PlanError), pointing at the
        planner's fixpoint candidates instead."""
        import repro
        from repro import DataType, RecursiveViewError

        db = repro.connect()
        db.create_table("Edge", [("src", DataType.INT), ("dst", DataType.INT)])
        db.insert("Edge", [(1, 2), (2, 3)])
        db.analyze()
        db.create_view(
            "tc",
            "SELECT src, dst FROM Edge"
            " UNION SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src",
            column_aliases=("x", "y"),
            recursive=True,
        )
        block = db.bind("SELECT E.src, T.y FROM Edge E, tc T"
                        " WHERE E.dst = T.x AND E.src = 1")
        with pytest.raises(RecursiveViewError) as exc:
            magic_rewrite(block, "T")
        assert isinstance(exc.value, PlanError)  # stays inside the taxonomy
        assert exc.value.view_name == "tc"
        assert "fixpoint" in str(exc.value)
