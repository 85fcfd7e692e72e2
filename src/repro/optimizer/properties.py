"""Derived statistical properties of plan intermediates.

The DP enumerator needs, for every partial join, the estimated row count,
row width, and per-column distinct counts (for join selectivities and
filter-set sizing). :class:`StatsEstimator` derives these from catalog
statistics, propagating them through predicates, joins, grouping, and
projection. Views are estimated by recursively estimating their blocks —
estimation is cheap (no plan search), so this does not violate the
paper's Assumption 1, which concerns nested *optimization*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.block import QueryBlock
from ..algebra.predicates import aliases_in
from ..algebra.relations import FilterSetRelation, RelationRef
from ..errors import PlanError
from ..expr.nodes import (
    Arithmetic,
    BooleanExpr,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    RuntimeMembership,
)
from ..stats.estimator import cardenas_distinct, join_selectivity
from ..storage.catalog import Catalog, ColumnStats
from ..storage.schema import Schema

DEFAULT_CMP_SELECTIVITY = 1.0 / 3.0
DEFAULT_EQ_SELECTIVITY = 0.1


@dataclass
class ColumnInfo:
    """Derived statistics for one column of an intermediate result."""

    distinct: float
    base: Optional[ColumnStats] = None  # histograms, when rooted in a table

    def capped(self, rows: float) -> "ColumnInfo":
        return ColumnInfo(min(self.distinct, max(rows, 1.0)), self.base)


@dataclass
class RelProps:
    """Estimated properties of a relation or plan intermediate."""

    schema: Schema
    rows: float
    columns: Dict[str, ColumnInfo] = field(default_factory=dict)

    @property
    def row_width(self) -> int:
        return self.schema.row_width()

    def column(self, name: str) -> ColumnInfo:
        info = self.columns.get(name)
        if info is None:
            # Unknown column: assume fully distinct (worst case for joins).
            info = ColumnInfo(max(self.rows, 1.0))
        return info

    def scaled(self, selectivity: float) -> "RelProps":
        """Props after a predicate keeps ``selectivity`` of the rows."""
        rows = max(0.0, self.rows * selectivity)
        return RelProps(
            self.schema,
            rows,
            {name: info.capped(rows) for name, info in self.columns.items()},
        )

    def renamed(self, schema: Schema, mapping: Dict[str, str]) -> "RelProps":
        """Props under a column renaming old_name -> new_name."""
        columns = {}
        for old, new in mapping.items():
            if old in self.columns:
                columns[new] = self.columns[old]
        return RelProps(schema, self.rows, columns)


class StatsEstimator:
    """Derives :class:`RelProps` and predicate selectivities."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        # stored and view props, derived once per planner (which owns its
        # estimator); an entry pins its relation so no id is recycled
        self._relations: Dict[int, Tuple[RelationRef, RelProps]] = {}

    # ------------------------------------------------------- base relations

    def relation_props(self, relation: RelationRef) -> RelProps:
        """Props of one FROM-list entry, with alias-qualified columns."""
        cached = self._relations.get(id(relation))
        if cached is None:
            cached = (relation, self._relation_props(relation))
            if relation.kind in ("stored", "view"):
                self._relations[id(relation)] = cached
        return cached[1]

    def _relation_props(self, relation: RelationRef) -> RelProps:
        if relation.kind == "stored":
            table_stats = self.catalog.stats(relation.table.name)
            columns = {}
            for col in relation.base_schema:
                base = table_stats.column(col.name)
                qualified = "%s.%s" % (relation.alias, col.name)
                if base is not None:
                    columns[qualified] = ColumnInfo(base.num_distinct, base)
                else:
                    columns[qualified] = ColumnInfo(
                        max(1.0, table_stats.num_rows)
                    )
            return RelProps(relation.output_schema,
                            float(table_stats.num_rows), columns)
        if relation.kind == "view":
            inner = self.block_output_props(relation.block)
            mapping = {}
            base_names = relation.base_schema.names()
            inner_names = inner.schema.names()
            for inner_name, base_name in zip(inner_names, base_names):
                mapping[inner_name] = "%s.%s" % (relation.alias, base_name)
            return inner.renamed(relation.output_schema, mapping)
        if relation.kind == "filterset":
            rows = max(1.0, relation.assumed_rows)
            columns = {
                name: ColumnInfo(rows) for name in relation.output_schema.names()
            }
            return RelProps(relation.output_schema, rows, columns)
        if relation.kind == "function":
            # One output tuple per invocation; props supplied by the UDF.
            rows = float(getattr(relation, "rows_per_invocation", 1.0))
            columns = {
                name: ColumnInfo(rows)
                for name in relation.output_schema.names()
            }
            return RelProps(relation.output_schema, rows, columns)
        if relation.kind == "recursive":
            return self.recursive_props(relation)
        raise PlanError("cannot estimate relation kind %r" % relation.kind)

    # ------------------------------------------------------------ recursion

    @staticmethod
    def recursive_template_block(relation, delta_rows: float) -> QueryBlock:
        """The recursive branch with the delta's assumed cardinality
        substituted — the block the optimizer plans (and estimates) as
        the per-iteration template."""
        block = relation.recursive_block
        relations = [
            rel.with_assumed_rows(max(delta_rows, 1.0))
            if (isinstance(rel, FilterSetRelation)
                and rel.param_id == relation.delta_param)
            else rel
            for rel in block.relations
        ]
        return QueryBlock(
            relations=relations,
            predicates=block.predicates,
            select_items=block.select_items,
            group_by=block.group_by,
            aggregates=block.aggregates,
            having=block.having,
            distinct=block.distinct,
            order_by=block.order_by,
            limit=block.limit,
        )

    def _fixpoint_domain(self, relation) -> List[float]:
        """Per-position distinct-value domain of the fixpoint output.

        The values a closure column can hold come from the relation's
        *unrestricted* base union whatever the recursive branch can
        produce — intrinsic to the rule, not to any assumed delta
        cardinality. (Computing this from the template under the
        assumed delta would collapse the domain whenever the seed is
        restricted, making the magic candidate look free.) We take the
        max of the base columns' distincts and the template's at an
        assumed one-row delta, positionally.
        """
        template = self.block_output_props(
            self.recursive_template_block(relation, 1.0))
        names = template.schema.names()
        domains = [max(1.0, template.column(name).distinct)
                   for name in names]
        for block in relation.base_blocks:
            props = self.block_output_props(block)
            for pos, name in enumerate(props.schema.names()[:len(domains)]):
                domains[pos] = max(domains[pos], props.column(name).distinct)
        return domains

    def fixpoint_estimate(self, relation, base_rows: Optional[float] = None,
                          domain_fraction: float = 1.0):
        """Cardinality model of a semi-naive fixpoint.

        Returns ``(base_rows, growth, total_rows, iterations)``:

        - ``growth`` is the template's output per delta row, estimated by
          substituting the base cardinality as the assumed delta;
        - ``total_rows`` is the geometric-series total, capped (under
          UNION semantics) by the *domain* — the product of the output
          columns' distinct counts, scaled by ``sqrt(domain_fraction)``
          when the base was restricted by pushed-down bindings (a
          smaller seed set reaches a smaller, but not proportionally
          smaller, part of the domain);
        - ``iterations`` grows with ``log2(total/base)`` clamped to
          [2, 32] — a *smaller* starting frontier needs *more* passes to
          exhaust its reachable set, and every pass pays the template's
          fixed costs. This is what lets the DP honestly reject the
          magic rewrite on scan-dominated workloads.
        """
        if base_rows is None:
            base_rows = sum(self.block_output_props(b).rows
                            for b in relation.base_blocks)
        b0 = max(base_rows, 0.0)
        delta_assumed = max(b0, 1.0)
        template = self.block_output_props(
            self.recursive_template_block(relation, delta_assumed))
        growth = template.rows / delta_assumed
        domain = 1.0
        for per_column in self._fixpoint_domain(relation):
            domain *= per_column
        domain *= max(min(domain_fraction, 1.0), 1e-6) ** 0.5
        domain = max(domain, delta_assumed)
        if b0 <= 0.0:
            return 0.0, growth, 0.0, 0.0
        if growth < 0.95:
            total = b0 / (1.0 - growth)
            if relation.distinct:
                total = min(total, domain)
        elif relation.distinct:
            total = domain
        else:
            # bag semantics on a non-shrinking delta: bounded only by
            # the iteration cap; assume the domain as a working figure
            total = max(domain, b0)
        total = max(total, b0)
        ratio = total / max(b0, 1.0)
        iterations = max(2.0, min(32.0, 2.0 + math.log2(max(ratio, 1.0))))
        return b0, growth, total, iterations

    def recursive_props(self, relation) -> RelProps:
        """Output props of a recursive relation's full fixpoint."""
        b0, _growth, total, _iters = self.fixpoint_estimate(relation)
        domains = self._fixpoint_domain(relation)
        columns = {}
        base_names = relation.base_schema.names()
        for per_column, base_name in zip(domains, base_names):
            qualified = "%s.%s" % (relation.alias, base_name)
            columns[qualified] = ColumnInfo(
                min(max(per_column, 1.0), max(total, 1.0)))
        return RelProps(relation.output_schema, total, columns)

    # ---------------------------------------------------------- selectivity

    def selectivity(self, predicate: Expr, props: RelProps) -> float:
        """Estimated fraction of rows satisfying ``predicate``."""
        if isinstance(predicate, BooleanExpr):
            if predicate.op == "AND":
                sel = 1.0
                for arg in predicate.args:
                    sel *= self.selectivity(arg, props)
                return sel
            if predicate.op == "OR":
                sel = 0.0
                for arg in predicate.args:
                    s = self.selectivity(arg, props)
                    sel = sel + s - sel * s
                return sel
            return max(0.0, 1.0 - self.selectivity(predicate.args[0], props))
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, props)
        if isinstance(predicate, RuntimeMembership):
            return max(0.0, min(1.0, predicate.assumed_selectivity))
        if isinstance(predicate, InList):
            sel = DEFAULT_EQ_SELECTIVITY * len(predicate.values)
            if isinstance(predicate.operand, ColumnRef):
                info = props.column(predicate.operand.name)
                if info.base is not None:
                    sel = sum(info.base.selectivity_eq(v)
                              for v in predicate.values)
                else:
                    sel = len(predicate.values) / max(1.0, info.distinct)
            sel = max(0.0, min(1.0, sel))
            return 1.0 - sel if predicate.negated else sel
        if isinstance(predicate, Literal):
            return 1.0 if predicate.value else 0.0
        return DEFAULT_CMP_SELECTIVITY

    def _comparison_selectivity(self, pred: Comparison,
                                props: RelProps) -> float:
        left, right = pred.left, pred.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            pred = pred.flipped()
            left, right = pred.left, pred.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            info = props.column(left.name)
            if info.base is not None:
                return info.base.selectivity_cmp(pred.op, right.value)
            if pred.op == "=":
                return 1.0 / max(1.0, info.distinct)
            if pred.op in ("!=", "<>"):
                return 1.0 - 1.0 / max(1.0, info.distinct)
            return DEFAULT_CMP_SELECTIVITY
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            d_left = props.column(left.name).distinct
            d_right = props.column(right.name).distinct
            if pred.op == "=":
                return join_selectivity(d_left, d_right)
            if pred.op in ("!=", "<>"):
                return 1.0 - join_selectivity(d_left, d_right)
            return DEFAULT_CMP_SELECTIVITY
        if pred.op == "=":
            return DEFAULT_EQ_SELECTIVITY
        return DEFAULT_CMP_SELECTIVITY

    def apply_predicates(self, props: RelProps,
                         predicates: Sequence[Expr]) -> RelProps:
        sel = 1.0
        for pred in predicates:
            sel *= self.selectivity(pred, props)
        return props.scaled(sel)

    # ----------------------------------------------------------------- joins

    def join_props(self, left: RelProps, right: RelProps,
                   predicates: Sequence[Expr]) -> RelProps:
        """Props of joining two intermediates under the given conjuncts."""
        schema = left.schema.concat(right.schema)
        columns = dict(left.columns)
        columns.update(right.columns)
        cross = left.rows * right.rows
        merged = RelProps(schema, cross, columns)
        sel = 1.0
        for pred in predicates:
            sel *= self.selectivity(pred, merged)
        rows = max(0.0, cross * sel)
        out = {name: info.capped(rows) for name, info in columns.items()}
        # Equi-joined columns share their values: both sides' distinct
        # counts drop to the smaller one (containment of values).
        for pred in predicates:
            if isinstance(pred, Comparison) and pred.op == "=" and \
                    isinstance(pred.left, ColumnRef) and \
                    isinstance(pred.right, ColumnRef):
                lname, rname = pred.left.name, pred.right.name
                if lname in out and rname in out:
                    shared = min(out[lname].distinct, out[rname].distinct)
                    out[lname] = ColumnInfo(shared, out[lname].base)
                    out[rname] = ColumnInfo(shared, out[rname].base)
        return RelProps(schema, rows, out)

    # ---------------------------------------------------------------- blocks

    def _fold_relations(self, relations, predicates) -> Optional[RelProps]:
        """Fold relations left to right, applying each conjunct at the
        first point all its aliases are joined."""
        props: Optional[RelProps] = None
        remaining = list(predicates)
        joined_aliases: set = set()
        for relation in relations:
            joined_aliases.add(relation.alias)
            applicable = [
                p for p in remaining
                if aliases_in(p) and aliases_in(p) <= joined_aliases
            ]
            remaining = [p for p in remaining if p not in applicable]
            own = [p for p in applicable
                   if aliases_in(p) == frozenset((relation.alias,))]
            props = self.fold_step(props, relation, own,
                                   [p for p in applicable if p not in own])
        if props is not None and remaining:
            props = self.apply_predicates(props, remaining)
        return props

    def fold_step(self, props: Optional[RelProps], relation,
                  own: Sequence[Expr],
                  join_preds: Sequence[Expr]) -> RelProps:
        """One step of the fold: join ``relation``, filtered by its
        ``own`` conjuncts first (so the join sees post-filter distinct
        counts), to ``props`` (None before the first relation) under the
        conjuncts this relation completes."""
        rel_props = self.apply_predicates(self.relation_props(relation), own)
        if props is None:
            return self.apply_predicates(rel_props, join_preds)
        if relation.kind == "function":
            return self.function_join_props(props, relation, join_preds)
        return self.join_props(props, rel_props, join_preds)

    def function_join_props(self, left: RelProps, relation,
                            predicates: Sequence[Expr]) -> RelProps:
        """Join estimate for a function-backed relation: each outer row
        yields ``rows_per_invocation`` rows; binding equi-predicates are
        satisfied by construction, others filter normally."""
        rel_props = self.relation_props(relation)
        schema = left.schema.concat(rel_props.schema)
        rpi = float(getattr(relation, "rows_per_invocation", 1.0))
        rows = left.rows * rpi
        columns = dict(left.columns)
        for name in rel_props.schema.names():
            columns[name] = ColumnInfo(max(rows, 1.0))
        props = RelProps(schema, rows, columns)
        arg_cols = {
            "%s.%s" % (relation.alias, a)
            for a in getattr(relation, "arg_columns", ())
        }
        non_binding = []
        for pred in predicates:
            if isinstance(pred, Comparison) and pred.op == "=":
                names = pred.columns()
                if names & arg_cols:
                    continue  # binding predicate, satisfied by invocation
            non_binding.append(pred)
        return self.apply_predicates(props, non_binding)

    def join_all_props(self, block: QueryBlock) -> RelProps:
        """Props of the block's full join (before grouping/projection)."""
        props = self._fold_relations(block.relations, block.predicates)
        if props is None:
            raise PlanError("block has no relations")
        return props

    def grouped_props(self, block: QueryBlock, joined: RelProps) -> RelProps:
        """Props after GROUP BY + aggregation (before HAVING)."""
        group_schema = block.group_output_schema()
        # groups = min(rows, product of group-col distincts)
        groups = 1.0
        for ref in block.group_by:
            groups *= joined.column(ref.name).distinct
        groups = min(max(1.0, groups), max(joined.rows, 1.0))
        if joined.rows == 0:
            groups = 0.0
        columns: Dict[str, ColumnInfo] = {}
        for ref in block.group_by:
            out_name = ref.name.split(".")[-1]
            info = joined.column(ref.name)
            columns[out_name] = ColumnInfo(
                min(info.distinct, max(groups, 1.0)), info.base
            )
        for agg in block.aggregates:
            columns[agg.alias] = ColumnInfo(max(groups, 1.0))
        return RelProps(group_schema, groups, columns)

    def union_output_props(self, union) -> RelProps:
        """Props of a UNION chain: summed rows, unioned distincts."""
        schema = union.output_schema()
        rows = 0.0
        distincts = [0.0] * len(schema)
        for flag_index, part in enumerate(union.parts):
            props = self.block_output_props(part)
            rows += props.rows
            for i, name in enumerate(part.output_schema().names()):
                distincts[i] += props.column(name).distinct
        if False in union.all_flags:
            rows *= 0.9  # a plain UNION link removes some duplicates
        columns = {
            col.name: ColumnInfo(min(distincts[i], max(rows, 1.0)))
            for i, col in enumerate(schema.columns)
        }
        return RelProps(schema, rows, columns)

    def block_output_props(self, block) -> RelProps:
        """Props of a block's (or union's) output (plain output names)."""
        from ..algebra.block import UnionQuery

        if isinstance(block, UnionQuery):
            return self.union_output_props(block)
        joined = self.join_all_props(block)
        if block.is_grouped:
            props = self.grouped_props(block, joined)
            if block.having is not None:
                props = self.apply_predicates(props, [block.having])
        else:
            props = joined

        output_schema = block.output_schema()
        if block.select_items:
            columns = {}
            for item, out_col in zip(block.select_items, output_schema.columns):
                if isinstance(item.expr, ColumnRef):
                    columns[out_col.name] = props.column(item.expr.name)
                else:
                    columns[out_col.name] = ColumnInfo(max(props.rows, 1.0))
            props = RelProps(output_schema, props.rows, columns)
        if block.distinct:
            distinct_rows = 1.0
            for name in props.schema.names():
                distinct_rows *= props.column(name).distinct
            distinct_rows = min(distinct_rows, max(props.rows, 0.0))
            props = RelProps(
                props.schema, distinct_rows,
                {n: i.capped(distinct_rows) for n, i in props.columns.items()},
            )
        if block.limit is not None:
            rows = min(props.rows, float(block.limit))
            props = RelProps(
                props.schema, rows,
                {n: i.capped(rows) for n, i in props.columns.items()},
            )
        return props

    # ----------------------------------------------------------- filter sets

    def filter_set_distinct(self, outer: RelProps,
                            columns: Sequence[str]) -> float:
        """Expected distinct combinations of the given outer columns.

        Single column: Cardenas draw from the column's domain. Multiple
        columns: product of distincts capped by the row count.
        """
        if not columns:
            raise PlanError("filter set needs at least one column")
        if len(columns) == 1:
            info = outer.column(columns[0])
            return max(1.0, min(
                cardenas_distinct(max(info.distinct, 1.0), outer.rows),
                outer.rows if outer.rows > 0 else 1.0,
            )) if outer.rows > 0 else 0.0
        product = 1.0
        for name in columns:
            product *= max(1.0, outer.column(name).distinct)
        return min(product, max(outer.rows, 0.0))
