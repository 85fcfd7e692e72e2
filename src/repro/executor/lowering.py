"""Lowering: physical plan nodes -> runnable operator trees.

Name resolution happens here, once: every expression is resolved against
the concrete input schema of the operator that will evaluate it, so the
operators themselves work purely positionally.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import PlanError
from ..optimizer.plans import (
    AggregateNode,
    DistinctNode,
    FilterJoinNode,
    FilterNode,
    FilterSetScanNode,
    FixpointNode,
    FunctionJoinNode,
    IndexScanNode,
    JoinMethod,
    JoinNode,
    LimitNode,
    MaterializeNode,
    NestedIterationNode,
    PlanNode,
    ProjectNode,
    RelabelNode,
    SeqScanNode,
    ShipNode,
    SortNode,
    UnionNode,
)
from ..storage import columnar
from ..storage.schema import Column, Schema
from .operators import (
    AggregateOp,
    BlockNLJoinOp,
    DistinctOp,
    FilterJoinOp,
    FilterOp,
    FilterSetScanOp,
    FixpointOp,
    FunctionJoinOp,
    HashJoinOp,
    IndexNLJoinOp,
    IndexScanOp,
    LimitOp,
    MaterializeOp,
    MergeJoinOp,
    NestedIterationOp,
    Operator,
    ProjectOp,
    RelabelOp,
    SeqScanOp,
    ShipOp,
    SortOp,
    UnionOp,
)
from .runtime import RuntimeContext


def lower(node: PlanNode, ctx: RuntimeContext,
          operators: Optional[List[Operator]] = None) -> Operator:
    """Lower a physical plan into an operator tree bound to ``ctx``.
    ``operators``, when given, receives every operator in the plan's
    pre-order: every plan node becomes one operator, and each method
    lowers the children in the order ``node.children()`` lists them.
    (Kept off ``ctx``, which every operator references: a list there
    would make each statement's tree a cycle only the collector frees.)
    """
    return _Lowering(ctx, operators if operators is not None else []
                     ).lower(node)


def execute_collect(root: Operator):
    """Run a lowered operator tree to completion; returns the rows and
    the root's output columns — ``(rows, columns_or_None)``.

    The root's batches are column-major already; concatenating them per
    column preserves the typed arrays (and string dictionaries) that
    :meth:`QueryResult.column` then exposes zero-copy. Columns are
    retained *next to* the row materialization, never instead of it;
    an empty result returns None for them.
    """
    batches = list(root.batches())
    rows: List[tuple] = []
    for batch in batches:
        rows.extend(batch.rows())
    width = len(root.schema)
    columns = None
    if batches and width:
        columns = [
            columnar.concat_columns(
                [batch.column(j) for batch in batches])
            for j in range(width)
        ]
    return rows, columns


class _Lowering:
    def __init__(self, ctx: RuntimeContext, operators: List[Operator]):
        self.ctx = ctx
        self.operators = operators

    def lower(self, node: PlanNode) -> Operator:
        """Lower ``node`` and its subtree; its operator's slot in
        ``operators`` is taken before the children are lowered."""
        method = getattr(self, "_lower_%s" % type(node).__name__, None)
        if method is None:
            raise PlanError("cannot lower plan node %r" % type(node).__name__)
        operators = self.operators
        slot = len(operators)
        operators.append(None)
        op = operators[slot] = method(node)
        return op

    # ----------------------------------------------------------------- leaves

    def _lower_SeqScanNode(self, node: SeqScanNode) -> Operator:
        predicate = (
            node.predicate.resolve(node.schema)
            if node.predicate is not None else None
        )
        return SeqScanOp(self.ctx, node.relation.table, node.schema,
                         predicate)

    def _lower_IndexScanNode(self, node: IndexScanNode) -> Operator:
        residual = (
            node.residual.resolve(node.schema)
            if node.residual is not None else None
        )
        column = node.column.split(".", 1)[1]
        return IndexScanOp(self.ctx, node.relation.table, node.schema,
                           column, node.op, node.value, residual)

    def _lower_FilterSetScanNode(self, node: FilterSetScanNode) -> Operator:
        return FilterSetScanOp(self.ctx, node.param_id, node.schema)

    # ------------------------------------------------------------ unary nodes

    def _lower_FilterNode(self, node: FilterNode) -> Operator:
        child = self.lower(node.child)
        return FilterOp(self.ctx, child,
                        node.predicate.resolve(child.schema))

    def _lower_ProjectNode(self, node: ProjectNode) -> Operator:
        child = self.lower(node.child)
        exprs = [item.expr.resolve(child.schema) for item in node.items]
        return ProjectOp(self.ctx, child, exprs, node.schema)

    def _lower_DistinctNode(self, node: DistinctNode) -> Operator:
        return DistinctOp(self.ctx, self.lower(node.child))

    def _lower_SortNode(self, node: SortNode) -> Operator:
        child = self.lower(node.child)
        keys = [
            (child.schema.index_of(name), ascending)
            for name, ascending in node.keys
        ]
        return SortOp(self.ctx, child, keys)

    def _lower_LimitNode(self, node: LimitNode) -> Operator:
        return LimitOp(self.ctx, self.lower(node.child), node.limit)

    def _lower_AggregateNode(self, node: AggregateNode) -> Operator:
        child = self.lower(node.child)
        group_positions = [
            child.schema.index_of(name) for name in node.group_names
        ]
        aggregates = [
            (spec,
             spec.argument.resolve(child.schema)
             if spec.argument is not None else None)
            for spec in node.aggregates
        ]
        return AggregateOp(self.ctx, child, group_positions, aggregates,
                           node.schema)

    def _lower_MaterializeNode(self, node: MaterializeNode) -> Operator:
        return MaterializeOp(self.ctx, self.lower(node.child))

    def _lower_RelabelNode(self, node: RelabelNode) -> Operator:
        return RelabelOp(self.ctx, self.lower(node.child), node.schema)

    def _lower_ShipNode(self, node: ShipNode) -> Operator:
        return ShipOp(self.ctx, self.lower(node.child),
                      from_site=node.from_site, to_site=node.to_site)

    def _lower_UnionNode(self, node: UnionNode) -> Operator:
        return UnionOp(self.ctx, self.lower(node.left),
                       self.lower(node.right), node.schema, node.distinct)

    def _lower_FixpointNode(self, node: FixpointNode) -> Operator:
        return FixpointOp(self.ctx, self.lower(node.base),
                          self.lower(node.template), node.delta_param,
                          node.schema, node.distinct)

    # ------------------------------------------------------------- join nodes

    def _positions(self, schema: Schema, names) -> List[int]:
        return [schema.index_of(name) for name in names]

    def _lower_JoinNode(self, node: JoinNode) -> Operator:
        outer = self.lower(node.outer)
        inner = self.lower(node.inner)
        combined = outer.schema.concat(inner.schema)
        residual = (
            node.residual.resolve(combined)
            if node.residual is not None else None
        )
        outer_positions = self._positions(
            outer.schema, [o for o, _ in node.equi_pairs]
        )
        inner_positions = self._positions(
            inner.schema, [i for _, i in node.equi_pairs]
        )
        if node.method == JoinMethod.HASH:
            return HashJoinOp(self.ctx, outer, inner, outer_positions,
                              inner_positions, residual, node.schema,
                              semi=node.semi)
        if node.method == JoinMethod.MERGE:
            return MergeJoinOp(self.ctx, outer, inner, outer_positions,
                               inner_positions, residual, node.schema)
        if node.method == JoinMethod.NLJ:
            return BlockNLJoinOp(self.ctx, outer, inner, outer_positions,
                                 inner_positions, residual, node.schema)
        if node.method == JoinMethod.INL:
            if node.index_column is None:
                raise PlanError("INL join without an index column")
            pair = next(
                (p for p in node.equi_pairs if p[1] == node.index_column),
                None,
            )
            if pair is None:
                raise PlanError("INL join: no pair for the index column")
            # non-probe equality pairs must be checked as residual
            extra = [p for p in node.equi_pairs if p is not pair]
            if extra:
                from ..expr.nodes import ColumnRef, Comparison, conjoin
                extras = [
                    Comparison("=", ColumnRef(o), ColumnRef(i))
                    for o, i in extra
                ]
                combined_pred = conjoin(
                    extras + ([node.residual] if node.residual else [])
                )
                residual = combined_pred.resolve(combined)
            inner_node = node.inner
            if not isinstance(inner_node, SeqScanNode):
                raise PlanError("INL join requires a base-table inner")
            remote = (inner_node.relation.site is not None
                      and inner_node.relation.site != node.site)
            return IndexNLJoinOp(
                self.ctx, outer, inner_node.relation.table,
                inner_node.schema, node.index_column.split(".", 1)[1],
                outer.schema.index_of(pair[0]), residual, node.schema,
                remote=remote, local_site=node.site,
                remote_site=inner_node.relation.site,
            )
        raise PlanError("unknown join method %r" % node.method)

    def _filter_schema(self, node, outer_schema: Schema) -> Schema:
        """Schema of the filter set, derived from the bind pairs."""
        return Schema(
            Column(filter_col, outer_schema.column(outer_col).dtype)
            for outer_col, filter_col in node.bind_pairs
        )

    @staticmethod
    def _remote_site(plan: PlanNode):
        """The remote site a filter set must be shipped to: the first
        non-local site found in the template subtree (a ship-home's
        origin, or a remote scan's placement)."""
        stack = [plan]
        while stack:
            node = stack.pop()
            from_site = getattr(node, "from_site", None)
            if from_site is not None:
                return from_site
            if node.site is not None:
                return node.site
            stack.extend(node.children())
        return None

    def _lower_NestedIterationNode(self, node: NestedIterationNode) -> Operator:
        outer = self.lower(node.outer)
        template = self.lower(node.inner_template)
        combined = outer.schema.concat(template.schema)
        residual = (
            node.residual.resolve(combined)
            if node.residual is not None else None
        )
        bind_positions = self._positions(
            outer.schema, [o for o, _ in node.bind_pairs]
        )
        return NestedIterationOp(
            self.ctx, outer, template, node.param_id, bind_positions,
            self._filter_schema(node, outer.schema), residual, node.schema,
        )

    def _lower_FilterJoinNode(self, node: FilterJoinNode) -> Operator:
        outer = self.lower(node.outer)
        template = self.lower(node.inner_template)
        combined = outer.schema.concat(template.schema)
        residual = (
            node.residual.resolve(combined)
            if node.residual is not None else None
        )
        bind_positions = self._positions(
            outer.schema, [o for o, _ in node.bind_pairs]
        )
        final_outer = self._positions(
            outer.schema, [o for o, _ in node.final_equi_pairs]
        )
        final_inner = self._positions(
            template.schema, [i for _, i in node.final_equi_pairs]
        )
        return FilterJoinOp(
            self.ctx, outer, template, node.param_id, bind_positions,
            self._filter_schema(node, outer.schema),
            final_outer, final_inner, residual, node.schema,
            materialize_production=node.materialize_production,
            lossy=node.lossy, bloom_bits=node.bloom_bits,
            ship_filter=node.ship_filter,
            site=node.site,
            filter_site=(self._remote_site(node.inner_template)
                         if node.ship_filter else None),
        )

    def _lower_FunctionJoinNode(self, node: FunctionJoinNode) -> Operator:
        outer = self.lower(node.outer)
        fn = node.function_relation
        # the log lives on the (possibly cached) plan: this run's only
        fn.reset_call_log()
        combined = outer.schema.concat(fn.output_schema)
        residual = (
            node.residual.resolve(combined)
            if node.residual is not None else None
        )
        bind_positions = self._positions(
            outer.schema, [o for o, _ in node.bind_pairs]
        )
        return FunctionJoinOp(self.ctx, outer, fn, bind_positions,
                              node.mode, residual, node.schema)
