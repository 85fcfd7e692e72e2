"""Physical plan nodes.

The optimizer produces a tree of these; :mod:`repro.executor.lowering`
turns them into runnable operators. Every node carries its output schema,
the optimizer's row/cost estimates, any interesting sort order, and the
site at which its output is produced (``None`` = the local/query site).

The join methods are exactly the taxonomy of the paper's Figure 6:

- repeated probe:     ``JoinMethod.NLJ`` / ``INL`` (stored),
                      :class:`NestedIterationNode` (views),
                      :class:`FunctionJoinNode` mode "repeated"/"memo" (UDFs)
- full computation:   ``JoinMethod.HASH`` / ``MERGE`` over a computed inner
- filter join:        :class:`FilterJoinNode` (exact filter set)
- lossy filter:       :class:`FilterJoinNode` with ``lossy=True`` (Bloom)
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from ..algebra.block import SelectItem
from ..algebra.relations import FilterSetRelation, StoredRelation
from ..expr.aggregates import AggregateSpec
from ..expr.nodes import Expr
from ..ledger import CostLedger
from ..storage.schema import Schema


class JoinMethod(enum.Enum):
    """Join algorithms for materialized (or materializable) inputs."""

    NLJ = "nested-loops"
    INL = "index-nested-loops"
    HASH = "hash"
    MERGE = "sort-merge"


class PlanNode:
    """Base class for physical plan nodes."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.est_rows: float = 0.0
        self.est_cost: float = 0.0
        self.est_components: CostLedger = CostLedger()
        self.sort_order: Optional[Tuple[str, ...]] = None
        self.site: Optional[str] = None

    def children(self) -> List["PlanNode"]:
        return []

    def label(self) -> str:
        """One-line description for EXPLAIN output."""
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Indented multi-line plan rendering with estimates."""
        pad = "  " * indent
        line = "%s%s  [rows=%.0f cost=%.1f]" % (
            pad, self.label(), self.est_rows, self.est_cost,
        )
        parts = [line]
        for child in self.children():
            parts.append(child.explain(indent + 1))
        return "\n".join(parts)

    def __repr__(self) -> str:
        return self.label()


# ----------------------------------------------------------------- leaves

class SeqScanNode(PlanNode):
    """Full scan of a stored table, applying local predicates on the fly."""

    def __init__(self, relation: StoredRelation, predicate: Optional[Expr]):
        super().__init__(relation.output_schema)
        self.relation = relation
        self.predicate = predicate
        self.site = relation.site

    def label(self) -> str:
        text = "SeqScan(%s AS %s)" % (
            self.relation.table.name, self.relation.alias,
        )
        if self.predicate is not None:
            text += " filter: %s" % self.predicate.display()
        return text


class IndexScanNode(PlanNode):
    """Index-assisted scan: equality or range probe on one column."""

    def __init__(self, relation: StoredRelation, column: str, op: str,
                 value, residual: Optional[Expr]):
        super().__init__(relation.output_schema)
        self.relation = relation
        self.column = column  # qualified name, e.g. "D.did"
        self.op = op
        self.value = value
        self.residual = residual
        self.site = relation.site

    def label(self) -> str:
        text = "IndexScan(%s AS %s on %s %s %r)" % (
            self.relation.table.name, self.relation.alias,
            self.column, self.op, self.value,
        )
        if self.residual is not None:
            text += " filter: %s" % self.residual.display()
        return text


class FilterSetScanNode(PlanNode):
    """Scan of a run-time-bound filter set (the magic set).

    ``param_id`` names the set; the executor looks it up in the runtime
    context. During optimization ``assumed_rows`` carries the equivalence
    class's cardinality.
    """

    def __init__(self, relation: FilterSetRelation):
        super().__init__(relation.output_schema)
        self.relation = relation
        self.param_id = relation.param_id
        self.assumed_rows = relation.assumed_rows

    def label(self) -> str:
        return "FilterSetScan(%s AS %s, assumed=%.0f)" % (
            self.param_id, self.relation.alias, self.assumed_rows,
        )


# ------------------------------------------------------------ unary nodes

class FilterNode(PlanNode):
    """Apply a residual predicate."""

    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__(child.schema)
        self.child = child
        self.predicate = predicate
        self.sort_order = child.sort_order
        self.site = child.site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Filter(%s)" % self.predicate.display()


class ProjectNode(PlanNode):
    """Evaluate select items over the child's rows."""

    def __init__(self, child: PlanNode, items: Sequence[SelectItem],
                 schema: Schema):
        super().__init__(schema)
        self.child = child
        self.items = list(items)
        self.site = child.site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Project(%s)" % ", ".join(i.display() for i in self.items)


class DistinctNode(PlanNode):
    """Hash-based duplicate elimination over all columns."""

    def __init__(self, child: PlanNode):
        super().__init__(child.schema)
        self.child = child
        self.site = child.site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Distinct"


class SortNode(PlanNode):
    """Sort by the named output columns."""

    def __init__(self, child: PlanNode, keys: Sequence[Tuple[str, bool]]):
        super().__init__(child.schema)
        self.child = child
        self.keys = list(keys)
        self.sort_order = tuple(name for name, asc in self.keys if asc) or None
        self.site = child.site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        rendered = ", ".join(
            "%s%s" % (name, "" if asc else " DESC") for name, asc in self.keys
        )
        return "Sort(%s)" % rendered


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, limit: int):
        super().__init__(child.schema)
        self.child = child
        self.limit = limit
        self.sort_order = child.sort_order
        self.site = child.site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Limit(%d)" % self.limit


class AggregateNode(PlanNode):
    """Hash aggregation: GROUP BY + aggregate functions.

    ``group_names`` are column names in the child schema; the output
    schema renames them to their group-output names.
    """

    def __init__(self, child: PlanNode, group_names: Sequence[str],
                 aggregates: Sequence[AggregateSpec], schema: Schema):
        super().__init__(schema)
        self.child = child
        self.group_names = list(group_names)
        self.aggregates = list(aggregates)
        self.site = child.site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        parts = list(self.group_names) + [a.display() for a in self.aggregates]
        return "HashAggregate(%s)" % ", ".join(parts)


class MaterializeNode(PlanNode):
    """Materialize the child into a temp (spilling if it exceeds memory)."""

    def __init__(self, child: PlanNode):
        super().__init__(child.schema)
        self.child = child
        self.site = child.site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Materialize"


class RelabelNode(PlanNode):
    """Rename the child's columns (e.g. qualify a view's output with its
    alias). Rows pass through untouched."""

    def __init__(self, child: PlanNode, schema: Schema):
        super().__init__(schema)
        self.child = child
        self.sort_order = None
        self.site = child.site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Relabel(%s)" % ", ".join(self.schema.names())


class DeferredTemplateNode(PlanNode):
    """Stand-in for a restricted-inner template that has not been
    planned in this statement.

    When a coster's equivalence classes come from the restriction memo
    it has their numbers but no plans. Candidates built from such a
    class carry this node — with the class's ``est_*`` numbers — under
    their :class:`RelabelNode`; ``Planner.plan`` swaps in the real
    template, by one nested optimization, only for nodes of the plan
    that won. ``site`` stays ``None``: a planned block always ends at
    the query site.
    """

    #: never read: the RelabelNode above supplies the schema
    _NO_COLUMNS = Schema(())

    def __init__(self, anchor_rows: float, plan_template):
        super().__init__(self._NO_COLUMNS)
        self.anchor_rows = anchor_rows
        self._plan_template = plan_template
        self._planned: Optional[PlanNode] = None

    def resolve(self) -> PlanNode:
        """The template plan, planned on first call."""
        if self._planned is None:
            self._planned = self._plan_template()
        return self._planned

    def label(self) -> str:
        return "DeferredTemplate(assumed=%.0f)" % self.anchor_rows


class ShipNode(PlanNode):
    """Ship the child's rows from its site to ``to_site`` (distributed)."""

    def __init__(self, child: PlanNode, to_site: Optional[str]):
        super().__init__(child.schema)
        self.child = child
        self.from_site = child.site
        self.to_site = to_site
        self.site = to_site

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Ship(%s -> %s)" % (self.from_site or "local",
                                   self.to_site or "local")


class UnionNode(PlanNode):
    """Concatenate two plans' outputs; ``distinct`` de-duplicates the
    combined result (left-associative UNION semantics)."""

    def __init__(self, left: PlanNode, right: PlanNode, schema: Schema,
                 distinct: bool):
        super().__init__(schema)
        self.left = left
        self.right = right
        self.distinct = distinct

    def children(self) -> List["PlanNode"]:
        return [self.left, self.right]

    def label(self) -> str:
        return "Union%s" % ("" if self.distinct else "All")


# ------------------------------------------------------------- join nodes

class JoinNode(PlanNode):
    """A join of two plans with a standard method.

    ``equi_pairs`` are (outer column, inner column) qualified names;
    ``residual`` holds non-equi join predicates evaluated on the joined
    row. ``semi`` restricts output to *inner* rows that found a match
    (used to apply a filter set to a stored relation).
    """

    def __init__(self, method: JoinMethod, outer: PlanNode, inner: PlanNode,
                 equi_pairs: Sequence[Tuple[str, str]],
                 residual: Optional[Expr] = None,
                 index_column: Optional[str] = None,
                 semi: bool = False):
        schema = inner.schema if semi else outer.schema.concat(inner.schema)
        super().__init__(schema)
        self.method = method
        self.outer = outer
        self.inner = inner
        self.equi_pairs = list(equi_pairs)
        self.residual = residual
        self.index_column = index_column
        self.semi = semi
        self.site = outer.site

    def children(self) -> List[PlanNode]:
        return [self.outer, self.inner]

    def label(self) -> str:
        pairs = ", ".join("%s=%s" % pair for pair in self.equi_pairs)
        text = "%sJoin[%s](%s)" % (
            "Semi" if self.semi else "", self.method.value, pairs,
        )
        if self.residual is not None:
            text += " residual: %s" % self.residual.display()
        return text


class NestedIterationNode(PlanNode):
    """Correlated (repeated-probe) evaluation of a virtual inner relation.

    For each outer row, the ``inner_template`` plan — which contains a
    :class:`FilterSetScanNode` leaf — is run with a one-row filter set
    holding the outer row's binding values. This is the paper's
    "correlation (nested iteration)" cell of Figure 6.
    """

    def __init__(self, outer: PlanNode, inner_template: PlanNode,
                 param_id: str,
                 bind_pairs: Sequence[Tuple[str, str]],
                 residual: Optional[Expr] = None):
        super().__init__(outer.schema.concat(inner_template.schema))
        self.outer = outer
        self.inner_template = inner_template
        self.param_id = param_id
        self.bind_pairs = list(bind_pairs)  # (outer col, filter-set col)
        self.residual = residual
        self.site = outer.site

    def children(self) -> List[PlanNode]:
        return [self.outer, self.inner_template]

    def label(self) -> str:
        pairs = ", ".join("%s->%s" % pair for pair in self.bind_pairs)
        return "NestedIteration(%s)" % pairs


class FilterJoinNode(PlanNode):
    """The paper's Filter Join (Definition 2.1).

    Evaluation steps, mirroring Table 1's cost components:

    1. materialize (or prepare to recompute) the production set = outer
    2. distinct-project the binding columns into the filter set
       (``lossy`` builds a Bloom filter instead of an exact set)
    3. run ``inner_template`` — the inner restricted by the filter set
       via a :class:`FilterSetScanNode` leaf
    4. hash-join the production set with the restricted inner

    ``bind_pairs`` maps outer columns to filter-set columns; the
    ``inner_template``'s filter-set leaf shares ``param_id``.
    """

    def __init__(self, outer: PlanNode, inner_template: PlanNode,
                 param_id: str,
                 bind_pairs: Sequence[Tuple[str, str]],
                 final_equi_pairs: Sequence[Tuple[str, str]],
                 residual: Optional[Expr] = None,
                 materialize_production: bool = True,
                 lossy: bool = False,
                 bloom_bits: int = 8 * 1024 * 8):
        super().__init__(outer.schema.concat(inner_template.schema))
        self.outer = outer
        self.inner_template = inner_template
        self.param_id = param_id
        self.bind_pairs = list(bind_pairs)
        self.final_equi_pairs = list(final_equi_pairs)
        self.residual = residual
        self.materialize_production = materialize_production
        self.lossy = lossy
        self.bloom_bits = bloom_bits
        self.site = outer.site
        # True when the filter set must be shipped to a remote inner's
        # site (the ship-back lives inside the template's plan).
        self.ship_filter: bool = False
        # Filled by the cost model for Table 1 reporting:
        self.component_estimates: dict = {}
        self.est_filter_rows: float = 0.0
        # the production set the filter is projected from
        self.production: Tuple[str, ...] = ()
        self.production_rows: float = 0.0

    def children(self) -> List[PlanNode]:
        return [self.outer, self.inner_template]

    def label(self) -> str:
        pairs = ", ".join("%s->%s" % pair for pair in self.bind_pairs)
        kind = "BloomFilterJoin" if self.lossy else "FilterJoin"
        return "%s(%s) final=hash" % (kind, pairs)


class FixpointNode(PlanNode):
    """Semi-naive fixpoint evaluation of a recursive relation.

    ``base`` computes iteration 0's rows (which double as the first
    delta); ``template`` is the recursive branch's plan, containing a
    :class:`FilterSetScanNode` leaf on ``delta_param`` that the executor
    rebinds to the previous iteration's delta before each pass. With
    ``distinct`` (UNION semantics) rows are deduplicated and the delta
    keeps only genuinely new rows, guaranteeing termination; without it
    (UNION ALL) every produced row joins both the output and the next
    delta, bounded by ``max_fixpoint_iterations``.

    ``magic`` marks the candidate whose base was restricted by bindings
    pushed down from the consuming query (the recursive magic-sets
    rewrite); the planner costs it against the full-fixpoint rival.
    """

    def __init__(self, base: PlanNode, template: PlanNode,
                 delta_param: str, schema: Schema, distinct: bool,
                 magic: bool = False, est_iterations: float = 0.0):
        super().__init__(schema)
        self.base = base
        self.template = template
        self.delta_param = delta_param
        self.distinct = distinct
        self.magic = magic
        self.est_iterations = est_iterations

    def children(self) -> List[PlanNode]:
        return [self.base, self.template]

    def label(self) -> str:
        kind = "MagicFixpoint" if self.magic else "Fixpoint"
        return "%s(%s%s, iters~%.0f)" % (
            kind, self.delta_param,
            "" if self.distinct else ", all", self.est_iterations,
        )


#: JoinMethod -> the short method name used by search traces and the
#: per-method planner counters (``db.why_not`` accepts these)
_JOIN_METHOD_LABELS = {
    JoinMethod.NLJ: "nlj",
    JoinMethod.INL: "inl",
    JoinMethod.HASH: "hash",
    JoinMethod.MERGE: "merge",
}


def method_label(node: PlanNode) -> str:
    """The join-method name of a candidate plan's top node.

    Non-join roots (access paths, sorts layered for merge joins) are
    classified as ``"access"`` so per-method counters stay meaningful.
    A residual filter layered on top of an access path is transparent:
    the fixpoint candidates keep their magic/fixpoint identity even when
    the query's remaining local predicates sit above them.
    """
    while isinstance(node, FilterNode):
        node = node.child
    if isinstance(node, JoinNode):
        return _JOIN_METHOD_LABELS[node.method]
    if isinstance(node, FilterJoinNode):
        return "bloom" if node.lossy else "filter_join"
    if isinstance(node, NestedIterationNode):
        return "nested_iteration"
    if isinstance(node, FixpointNode):
        return "magic" if node.magic else "fixpoint"
    if isinstance(node, FunctionJoinNode):
        return "function_%s" % node.mode
    return "access"


class FunctionJoinNode(PlanNode):
    """Join an outer plan with a user-defined (function) relation.

    Modes (Figure 6's rightmost column):

    - ``repeated``: invoke once per outer row
    - ``memo``: invoke once per distinct argument seen, in arrival order
    - ``filter``: the Filter Join — distinct-project arguments first,
      then invoke consecutively (locality discount), then join back
    """

    MODES = ("repeated", "memo", "filter")

    def __init__(self, outer: PlanNode, function_relation,
                 bind_pairs: Sequence[Tuple[str, str]],
                 mode: str,
                 residual: Optional[Expr] = None):
        if mode not in self.MODES:
            raise ValueError("unknown function join mode %r" % mode)
        super().__init__(
            outer.schema.concat(function_relation.output_schema)
        )
        self.outer = outer
        self.function_relation = function_relation
        self.bind_pairs = list(bind_pairs)  # (outer col, function arg col)
        self.mode = mode
        self.residual = residual
        self.site = outer.site

    def children(self) -> List[PlanNode]:
        return [self.outer]

    def label(self) -> str:
        return "FunctionJoin[%s](%s)" % (
            self.mode, self.function_relation.display_name(),
        )
