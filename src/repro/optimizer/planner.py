"""System-R dynamic-programming planner with Filter Joins.

The planner enumerates left-deep join orders bottom-up, keeping the best
partial plan per (relation subset, interesting order). At every join step
it considers the classic methods — (block) nested loops, index nested
loops, hash, sort-merge — *and* the paper's Filter Join family:

- :class:`NestedIterationNode` — correlated, per-outer-row evaluation of a
  virtual inner (the "repeated probe" cell of Figure 6);
- :class:`FilterJoinNode` — distinct filter set restricting the inner
  (magic sets / semi-join), exact or lossy (Bloom);
- :class:`FunctionJoinNode` — the UDF analogues.

Filter Joins are costed through :class:`ParametricInnerCoster`
(Section 4.2), so the asymptotic complexity of the enumeration is
unchanged: per join, one production set (Limitation 2), a constant
number of filter-set variants (Limitation 3), and O(1) costing
(Assumption 1). Relaxing Limitations 1/2 via the config widens the
production-set choices, which experiment C2 uses to measure the blow-up.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.block import QueryBlock
from ..algebra.predicates import alias_of, aliases_in, equijoin_pairs
from ..algebra.relations import (
    FilterSetRelation,
    RelationRef,
    StoredRelation,
    VirtualRelation,
)
from ..errors import PlanError
from ..expr.nodes import (
    BooleanExpr,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    conjoin,
    sargable,
)
from ..ledger import CostLedger
from ..rewrite.magic import (
    bindable_columns,
    recursive_magic_bindings,
    restricted_block,
)
from ..storage.catalog import Catalog
from .config import OptimizerConfig
from .cost import CostModel
from .parametric import ParametricInnerCoster, RestrictionMemo
from .plans import (
    AggregateNode,
    DeferredTemplateNode,
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
from .properties import RelProps, StatsEstimator

# The DP memo's verdicts on a candidate, as a search trace reports them:
# kept; beaten at its (interesting order, site) entry; kept although the
# unordered best is cheaper; evicted by the 4x interesting-order rule.
KEPT = "kept"
DOMINATED = "dominated-by-cost"
ORDER_SURVIVOR = "interesting-order-survivor"
ORDER_PRUNED = "order-pruned"


@dataclass
class PlannerMetrics:
    """Counters for the complexity experiments (C2, F5)."""

    plans_considered: int = 0
    joins_enumerated: int = 0
    filter_joins_considered: int = 0
    # nested optimizer runs actually executed (a coster answered from
    # the restriction memo runs none, a deferred template one)
    nested_optimizations: int = 0
    dp_entries: int = 0
    # costers whose classes came from / had to be planned into the
    # cross-statement restriction memo, and entries its bound pushed out
    restriction_memo_hits: int = 0
    restriction_memo_misses: int = 0
    restriction_memo_evictions: int = 0
    # Per-join-method breakdowns: how many candidates each method put
    # into the DP, and how many of those the memo discarded.
    candidates_by_method: Dict[str, int] = field(default_factory=dict)
    pruned_by_method: Dict[str, int] = field(default_factory=dict)


class PartialPlan:
    """One DP table entry: the best plan found for a relation subset
    (under one interesting order, at one site) as numbers plus a recipe.

    The DP compares numbers only; ``build`` makes the :class:`PlanNode`
    subtree the first time ``plan`` is read — by the plan a block
    returns, by a join built over this entry, or by a search trace,
    which reads every candidate's. ``mask`` is the subset as the
    block's relation bits, ``method`` the top node's ``method_label``.
    """

    __slots__ = ("mask", "aliases", "sequence", "props", "cost",
                 "components", "sort_order", "site", "method", "parent",
                 "_build", "_plan")

    def __init__(self, mask, aliases, sequence, props, cost, components,
                 sort_order, site, method, build, parent=None):
        self.mask, self.aliases, self.sequence = mask, aliases, sequence
        self.props, self.cost, self.components = props, cost, components
        self.sort_order, self.site, self.method = sort_order, site, method
        self.parent, self._build, self._plan = parent, build, None

    @property
    def plan(self) -> PlanNode:
        if self._plan is None:
            self._plan = self._build()
        return self._plan

    def fresh(self) -> PlanNode:
        """A node of its own, for a use as a join's inner (a recipe
        over a plan built already, a view's or a fixpoint's, hands
        that plan out)."""
        return self._build()


# One join step's fixed facts: the joined subset's mask, aliases and
# props, its equi-join (outer, inner) column pairs and its residual.
_Step = namedtuple("_Step", "mask aliases props equi_names residual")


class _BlockFacts:
    """What is fixed per block, derived once.

    Relations are numbered in FROM order, so a relation subset is a bit
    mask, and each conjunct carries the mask of the relations it reads.
    A subset's props are one :meth:`StatsEstimator.fold_step` from the
    subset without its last relation (the left-to-right fold of a whole
    block's estimate, so every plan of a subset shares one estimate).
    Also kept: per mask the relations joinable next, per join step its
    :class:`_Step`, per relation its local conjuncts, access paths and
    filter-set-bindable view columns.
    """

    def __init__(self, block: QueryBlock, estimator: StatsEstimator):
        self.block = block
        self.estimator = estimator
        self.relations = {rel.alias: rel for rel in block.relations}
        self.bit = {alias: 1 << i for i, alias in enumerate(self.relations)}
        self.full = (1 << len(self.bit)) - 1
        # the bits are distinct, so a sum is their union; an alias
        # outside the FROM list adds bits above every subset's
        self.preds = [(p, sum(self.bit.get(a, self.full + 1)
                              for a in aliases_in(p)))
                      for p in block.predicates]
        self.locals = {alias: [p for p, m in self.preds if m == bit]
                       for alias, bit in self.bit.items()}
        self.access: Dict[str, List[PartialPlan]] = {}
        self.steps: Dict[Tuple[int, str], _Step] = {}
        self.bindable: Dict[str, set] = {}
        self._props: Dict[int, RelProps] = {}
        self._partners: Dict[int, List[str]] = {}

    def props(self, mask: int) -> RelProps:
        props = self._props.get(mask)
        if props is None:
            last = 1 << (mask.bit_length() - 1)
            rest = mask ^ last
            applicable = [(p, m) for p, m in self.preds
                          if m & last and not m & ~mask]
            props = self._props[mask] = self.estimator.fold_step(
                self.props(rest) if rest else None,
                list(self.relations.values())[last.bit_length() - 1],
                [p for p, m in applicable if m == last],
                [p for p, m in applicable if m != last])
        return props

    def partners(self, mask: int) -> List[str]:
        """Relations joinable next: connected ones, or all when the join
        graph leaves no connected choice (forced cross product)."""
        partners = self._partners.get(mask)
        if partners is None:
            remaining = [a for a, bit in self.bit.items() if not bit & mask]
            partners = self._partners[mask] = [
                a for a in remaining
                if any(m & self.bit[a] and m & mask
                       and not m & ~(mask | self.bit[a])
                       for _p, m in self.preds)
            ] or remaining
        return partners


class Planner:
    """Plans bound query blocks into physical plans."""

    def __init__(self, catalog: Catalog,
                 config: Optional[OptimizerConfig] = None,
                 trace=None,
                 memo: Optional[RestrictionMemo] = None):
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        self.config.validate()
        # Equivalence-class numbers shared across statements when a
        # Database hands its memo in; a planner on its own starts from
        # an empty one and so plans every class itself.
        self.memo = memo if memo is not None else RestrictionMemo()
        self.estimator = StatsEstimator(catalog)
        self.cost_model = CostModel(self.config)
        self.metrics = PlannerMetrics()
        self._param_counter = itertools.count(1)
        self._restriction_depth = 0
        self._costers: Dict[Tuple, ParametricInnerCoster] = {}
        # a view's full computation: (plan, rows, ledger)
        self._view_plans: Dict[int, Tuple[PlanNode, float, CostLedger]] = {}
        # Recursive relations: cached base-seed plans (per relation).
        self._fixpoint_bases: Dict[int, Tuple[PlanNode, CostLedger, float]] = {}
        # per block (its facts hold it)
        self._blocks: Dict[int, _BlockFacts] = {}
        # The caches above key by id(); keep the keyed objects alive so
        # a dead object's id can never be recycled into a stale hit.
        self._cache_pins: List[object] = []
        # Optional search-space recorder (obs.opttrace.OptimizerTrace):
        # the planner reports each block, candidate, verdict and skipped
        # join method to it where it decides them; with trace None each
        # report is one skipped `if`.
        self.trace = trace
        if trace is not None:
            trace.begin(self.config)

    # ------------------------------------------------------------ public API

    def plan(self, block) -> PlanNode:
        """Plan a bound query (a single block or a UNION chain)."""
        plan = self._plan_query(block)
        self._resolve_templates(plan)
        if self.trace is not None:
            self.trace.finalize(plan, self.metrics, self._costers.values())
        return plan

    def _plan_query(self, block) -> PlanNode:
        from ..algebra.block import UnionQuery

        if isinstance(block, UnionQuery):
            return self.plan_union(block)
        return self.plan_block(block)

    def _resolve_templates(self, node: PlanNode) -> None:
        """Plan the templates the winning plan left deferred.

        Candidates costed from memoised class numbers carry a
        :class:`DeferredTemplateNode`; only those that made it into
        ``node``'s tree are worth a nested optimization. A resolved
        template is walked too: it may embed a view plan that holds
        deferred templates of its own.
        """
        if isinstance(node, RelabelNode) and \
                isinstance(node.child, DeferredTemplateNode):
            node.child = node.child.resolve()
        for child in node.children():
            self._resolve_templates(child)

    def plan_union(self, union) -> PlanNode:
        """Plan a UNION chain left-associatively."""
        schema = union.output_schema()
        plan = self.plan_block(union.parts[0])
        components = plan.est_components.snapshot()
        rows = plan.est_rows
        for flag, part in zip(union.all_flags, union.parts[1:]):
            right = self.plan_block(part)
            components.merge(right.est_components)
            rows += right.est_rows
            distinct = not flag
            if distinct:
                components.merge(self.cost_model.dedup(rows))
                rows *= 0.9  # mild overlap assumption
            node = UnionNode(plan, right, schema, distinct)
            self._finish(node, rows, components)
            plan = node
        if union.order_by:
            components.merge(self.cost_model.sort(rows, schema.row_width()))
            plan = SortNode(plan, [(ref.name, asc)
                                   for ref, asc in union.order_by])
            self._finish(plan, rows, components)
        if union.limit is not None:
            plan = LimitNode(plan, union.limit)
            rows = min(rows, float(union.limit))
            self._finish(plan, rows, components)
        return plan

    # ---------------------------------------------------------- block plans

    def plan_block(self, block: QueryBlock) -> PlanNode:
        if self.trace is not None:
            self.trace.enter_block()
        best = self._plan_joins(block)
        if self.trace is not None:
            self.trace.exit_block()
        plan = best.plan
        components = best.components.snapshot()
        props = best.props
        rows = props.rows

        def filtered(predicate):
            sel = self.estimator.selectivity(predicate, props)
            components.merge(self.cost_model.filter_rows(rows))
            node = FilterNode(plan, predicate)
            self._finish(node, rows * sel, components)
            return node, rows * sel, props.scaled(sel)

        # a conjunct over no relation joins no DP subset: it filters the
        # join result once, below any grouping
        constant = [p for p in block.predicates if not aliases_in(p)]
        if constant:
            plan, rows, props = filtered(conjoin(constant))

        if block.is_grouped:
            group_schema = block.group_output_schema()
            grouped = self.estimator.grouped_props(block, props)
            step = self.cost_model.hash_aggregate(rows, grouped.rows)
            components.merge(step)
            plan = AggregateNode(plan,
                                 [g.name for g in block.group_by],
                                 block.aggregates, group_schema)
            self._finish(plan, grouped.rows, components)
            props, rows = grouped, grouped.rows
            if block.having is not None:
                plan, rows, props = filtered(block.having)

        if block.select_items:
            out_schema = block.output_schema()
            step = self.cost_model.project_rows(rows)
            components.merge(step)
            new_columns = {}
            for item, col in zip(block.select_items, out_schema.columns):
                if isinstance(item.expr, ColumnRef):
                    new_columns[col.name] = props.column(item.expr.name)
            plan = ProjectNode(plan, block.select_items, out_schema)
            props = RelProps(out_schema, rows, new_columns)
            self._finish(plan, rows, components)

        if block.distinct:
            distinct_rows = 1.0
            for name in props.schema.names():
                distinct_rows *= max(1.0, props.column(name).distinct)
            distinct_rows = min(distinct_rows, max(rows, 0.0))
            step = self.cost_model.dedup(rows)
            components.merge(step)
            plan = DistinctNode(plan)
            rows = distinct_rows
            self._finish(plan, rows, components)

        if block.order_by:
            wanted = tuple(ref.name for ref, asc in block.order_by if asc)
            if not wanted or plan.sort_order is None or \
                    plan.sort_order[:len(wanted)] != wanted:
                step = self.cost_model.sort(rows, props.row_width)
                components.merge(step)
                plan = SortNode(
                    plan, [(ref.name, asc) for ref, asc in block.order_by]
                )
                self._finish(plan, rows, components)

        if block.limit is not None:
            plan = LimitNode(plan, block.limit)
            rows = min(rows, float(block.limit))
            self._finish(plan, rows, components)

        if plan.site is not None:
            step = self.cost_model.ship(rows, props.row_width)
            components.merge(step)
            plan = ShipNode(plan, None)
            self._finish(plan, rows, components)
        return plan

    # ------------------------------------------------------------- join DP

    def _plan_joins(self, block: QueryBlock) -> PartialPlan:
        facts = self._blocks.get(id(block))
        if facts is None:
            facts = self._blocks[id(block)] = _BlockFacts(block,
                                                          self.estimator)
        n = len(facts.relations)
        # mask -> {(interesting order, site): entry}, in insertion order
        table: Dict[int, Dict[tuple, PartialPlan]] = {}

        forced = (self.config.forced_view_join
                  if self._restriction_depth == 0 else None)
        for rel in facts.relations.values():
            if (forced in ("nested_iteration", "filter_join", "bloom")
                    and rel.kind == "view" and n > 1):
                continue  # the forced strategy only joins the view as inner
            for partial in self._access_plans(rel, facts):
                self._add_entry(table, partial)
        if not table:
            raise PlanError(
                "no relation in the block can be accessed standalone "
                "(function relations need join bindings)"
            )

        for size in range(1, n):
            for mask in [m for m in table if bin(m).count("1") == size]:
                for partial in list(table[mask].values()):
                    for alias in facts.partners(mask):
                        rel = facts.relations[alias]
                        candidates = self._join_candidates(facts, partial,
                                                           rel)
                        if self.trace is not None \
                                and self._restriction_depth == 0:
                            self.trace.skipped_joins(partial, rel, candidates)
                        for candidate in candidates:
                            self._add_entry(table, candidate)

        bucket = table.get(facts.full)
        if not bucket:
            raise PlanError("optimizer found no complete join plan")
        self.metrics.dp_entries += sum(len(b) for b in table.values())
        return min(bucket.values(), key=self._cost_with_ship_home)

    def _cost_with_ship_home(self, partial: PartialPlan) -> float:
        """A remote-sited plan must eventually ship its result to the
        query site; comparing complete plans ignores that at its peril."""
        if partial.site is None:
            return partial.cost
        ship = self.cost_model.ship(partial.props.rows,
                                    partial.props.row_width)
        return partial.cost + self.cost_model.scalar(ship)

    def _add_entry(self, table, candidate: PartialPlan) -> None:
        self.metrics.plans_considered += 1
        by_method = self.metrics.candidates_by_method
        by_method[candidate.method] = by_method.get(candidate.method, 0) + 1
        if self.trace is not None:
            self.trace.candidate(candidate, self._restriction_depth)
        bucket = table.setdefault(candidate.mask, {})
        # Entries are comparable only at the same (interesting order,
        # site): a differently-sited plan owes a future shipping cost.
        site = candidate.site
        entry_key = (candidate.sort_order, site)
        incumbent = bucket.get(entry_key)
        if incumbent is None or candidate.cost < incumbent.cost:
            bucket[entry_key] = candidate
            if incumbent is not None:
                self._note_pruned(incumbent, DOMINATED, by=candidate)
        else:
            self._note_pruned(candidate, DOMINATED, by=incumbent)
        # Prune ordered entries dominated by the same-site unordered best.
        entries = list(bucket.items())
        best_any = min([p.cost for (_o, s), p in entries if s == site])
        for key, entry in entries:
            if key[0] is not None and key[1] == site \
                    and entry.cost > best_any * 4:
                self._note_pruned(entry, ORDER_PRUNED)
                del bucket[key]
        if self.trace is not None and candidate.sort_order is not None \
                and bucket.get(entry_key) is candidate:
            unordered = bucket.get((None, site))
            if unordered is not None and unordered.cost < candidate.cost:
                self.trace.verdict(candidate, ORDER_SURVIVOR)

    def _note_pruned(self, partial: PartialPlan, verdict: str,
                     by: Optional[PartialPlan] = None) -> None:
        """Count an entry the memo discarded, and report why: beaten by
        ``by`` (``DOMINATED``) or evicted by the 4x rule."""
        counts = self.metrics.pruned_by_method
        counts[partial.method] = counts.get(partial.method, 0) + 1
        if self.trace is not None:
            self.trace.verdict(partial, verdict, by)

    # ----------------------------------------------------------- access paths

    def _access_plans(self, rel: RelationRef,
                      facts: _BlockFacts) -> List[PartialPlan]:
        """The relation's access paths, derived once per block (a
        recursive relation's costed fixpoint pair among them, since the
        consuming block's predicates decide the magic restriction)."""
        plans = facts.access.get(rel.alias)
        if plans is None:
            plans = facts.access[rel.alias] = self._derive_access_plans(
                rel, facts)
        if rel.kind == "recursive" and self.trace is not None \
                and self._restriction_depth == 0:
            self.trace.skipped_fixpoints(rel, plans)
        return plans

    def _derive_access_plans(self, rel: RelationRef,
                             facts: _BlockFacts) -> List[PartialPlan]:
        if rel.kind == "function":
            return []  # only joinable with bindings
        bit = facts.bit[rel.alias]
        locals_ = facts.locals[rel.alias]
        props = facts.props(bit)
        plans: List[PartialPlan] = []

        if rel.kind == "stored":
            base = self.estimator.relation_props(rel)
            table = rel.table
            components = self.cost_model.seq_scan(table.num_pages,
                                                  table.num_rows)
            if locals_:
                components.merge(self.cost_model.filter_rows(table.num_rows))
            # A clustered table's heap order IS the cluster column's
            # order — a free interesting order for merge joins/ORDER BY.
            order = None
            if table.clustered_on is not None:
                order = ("%s.%s" % (rel.alias, table.clustered_on),)

            def scan():
                node = SeqScanNode(rel, conjoin(locals_))
                node.sort_order = order
                self._finish(node, props.rows, components)
                return node
            plans.append(self._partial(rel, bit, props, components, order,
                                       rel.site, scan))
            plans.extend(self._index_access_plans(rel, bit, locals_,
                                                  base, props))
        elif rel.kind == "view":
            view, rows, components = self._view_full_computation(rel)
            if locals_:
                components = components + self.cost_model.filter_rows(rows)

            def view_access():
                if not locals_:
                    return view
                # Re-run local predicate filtering on top of the view output.
                node = FilterNode(view, conjoin(locals_))
                self._finish(node, props.rows, components)
                return node
            plans.append(self._partial(rel, bit, props, components,
                                       view.sort_order, view.site,
                                       view_access))
        elif rel.kind == "filterset":
            components = self.cost_model.rescan(rel.assumed_rows,
                                                rel.base_schema.row_width())

            def filter_set_scan():
                node = FilterSetScanNode(rel)
                self._finish(node, props.rows, components)
                return node
            plans.append(self._partial(rel, bit, props, components, None,
                                       None, filter_set_scan))
        elif rel.kind == "recursive":
            plans.extend(self._recursive_access_plans(rel, bit, locals_,
                                                      props))
        else:
            raise PlanError("cannot access relation kind %r" % rel.kind)
        return plans

    # ------------------------------------------------- recursive fixpoints

    def _recursive_access_plans(self, rel, bit, locals_,
                                props) -> List[PartialPlan]:
        """The costed pair for a recursive relation: the full fixpoint
        and, when query bindings are pushable into the seed, the
        magic-restricted fixpoint. Both land in the same DP bucket, so
        the System-R comparison decides whether magic sets pay off."""
        forced = (self.config.forced_recursive
                  if self._restriction_depth == 0 else None)
        pushable, remaining = recursive_magic_bindings(rel, locals_)
        full = self._fixpoint_candidate(rel, bit, props,
                                        pushable=None, remaining=locals_)
        magic = None
        if pushable:
            magic = self._fixpoint_candidate(rel, bit, props,
                                             pushable=pushable,
                                             remaining=remaining)
        if forced == "magic" and magic is not None:
            return [magic]
        if forced == "full" or magic is None:
            return [full]
        return [full, magic]

    def _fixpoint_base(self, rel) -> Tuple[PlanNode, CostLedger, float]:
        """Plan the non-recursive base branches (UNION ALL seed), cached.

        Deduplication against UNION semantics happens inside the
        fixpoint operator, so the branches chain with bag unions here.
        """
        cached = self._fixpoint_bases.get(id(rel))
        if cached is not None:
            return cached
        plans = [self.plan_block(b) for b in rel.base_blocks]
        self.metrics.nested_optimizations += len(plans)
        node = plans[0]
        components = node.est_components.snapshot()
        rows = node.est_rows
        schema = node.schema
        for part in plans[1:]:
            components.merge(part.est_components)
            rows += part.est_rows
            node = UnionNode(node, part, schema, distinct=False)
            self._finish(node, rows, components)
        cached = (node, components, rows)
        self._fixpoint_bases[id(rel)] = cached
        self._cache_pins.append(rel)
        return cached

    def _fixpoint_candidate(self, rel, bit, props, pushable,
                            remaining) -> PartialPlan:
        """One semi-naive fixpoint candidate over ``rel``.

        ``pushable`` (magic variant) holds the query bindings seeded
        into the base; ``remaining`` the local predicates still applied
        above the fixpoint. Cost = seed + per-iteration template cost
        scaled by the estimated iteration count + delta bookkeeping.
        """
        base_node, base_components, base_rows = self._fixpoint_base(rel)
        components = base_components.snapshot()
        width = rel.base_schema.row_width()
        sel = 1.0
        if pushable:
            full_props = self.estimator.relation_props(rel)
            base_names = base_node.schema.names()
            for binding in pushable:
                sel *= self.estimator.selectivity(binding.predicate,
                                                  full_props)
            sel = max(min(sel, 1.0), 1e-6)
            components.merge(self.cost_model.filter_rows(base_rows))
            base_node = FilterNode(
                base_node,
                conjoin([b.pushed(base_names) for b in pushable]),
            )
            base_rows = base_rows * sel
            self._finish(base_node, base_rows, components)
        b0, _growth, total, iterations = self.estimator.fixpoint_estimate(
            rel, base_rows=base_rows, domain_fraction=sel,
        )
        delta_avg = max(total / max(iterations, 1.0), 1.0)
        template_block = self.estimator.recursive_template_block(
            rel, delta_avg)
        self._restriction_depth += 1
        try:
            template = self.plan_block(template_block)
        finally:
            self._restriction_depth -= 1
        self.metrics.nested_optimizations += 1
        components.merge(template.est_components.scaled(iterations))
        # Per-pass delta materialization plus the per-row fixpoint loop
        # work (dedup probes, delta bookkeeping).
        components.merge(
            self.cost_model.materialize(delta_avg, width).scaled(iterations))
        loop = CostLedger()
        loop.charge_cpu(b0 + total)
        components.merge(loop)
        node = FixpointNode(base_node, template, rel.delta_param,
                            rel.output_schema, rel.distinct,
                            magic=bool(pushable),
                            est_iterations=iterations)
        node.site = None  # seed and template both end at the coordinator
        self._finish(node, total, components)
        if remaining:
            components.merge(self.cost_model.filter_rows(total))
            node = FilterNode(node, conjoin(list(remaining)))
            self._finish(node, props.rows, components)
        return self._partial(rel, bit, props, components, None, None,
                             lambda: node,
                             "magic" if pushable else "fixpoint")

    def _index_access_plans(self, rel: StoredRelation, bit: int,
                            locals_: List[Expr], base: RelProps,
                            props: RelProps) -> List[PartialPlan]:
        plans: List[PartialPlan] = []
        table = rel.table
        for pred in locals_:
            probe = sargable(pred, table)
            if probe is None:
                continue
            pred, index = probe
            column = index.column_name
            sel = self.estimator.selectivity(pred, base)
            matches = base.rows * sel
            components = self.cost_model.index_probe(
                table.num_rows, table.num_pages, matches,
                clustered=(table.clustered_on == column),
                row_width=table.schema.row_width(),
            )
            residual = [p for p in locals_ if p is not pred]
            if residual:
                components.merge(self.cost_model.filter_rows(matches))
            order = (pred.left.name,) if index.kind == "sorted" else None

            def index_scan(pred=pred, residual=residual, order=order,
                           components=components):
                node = IndexScanNode(rel, pred.left.name, pred.op,
                                     pred.right.value, conjoin(residual))
                node.sort_order = order
                self._finish(node, props.rows, components)
                return node
            plans.append(self._partial(rel, bit, props, components, order,
                                       rel.site, index_scan))
        return plans

    def _view_full_computation(self, rel: VirtualRelation
                               ) -> Tuple[PlanNode, float, CostLedger]:
        """Fully compute the view (its own nested optimization), cached:
        its plan, rows and ledger."""
        cached = self._view_plans.get(id(rel))
        if cached is not None:
            return cached
        inner_plan = self._plan_query(rel.block)  # block or union
        self.metrics.nested_optimizations += 1
        node = RelabelNode(inner_plan, rel.output_schema)
        node.site = rel.site if rel.site is not None else inner_plan.site
        components = inner_plan.est_components.snapshot()
        rows = self.estimator.relation_props(rel).rows
        self._finish(node, rows, components)
        cached = self._view_plans[id(rel)] = (node, rows, components)
        self._cache_pins.append(rel)
        return cached

    def _partial(self, rel: RelationRef, bit: int, props: RelProps,
                 components: CostLedger, sort_order, site, build,
                 method: str = "access") -> PartialPlan:
        return PartialPlan(bit, frozenset((rel.alias,)), (rel.alias,), props,
                           self.cost_model.scalar(components), components,
                           sort_order, site, method, build)

    # -------------------------------------------------------- join candidates

    def _join_candidates(self, facts: _BlockFacts, partial: PartialPlan,
                         rel: RelationRef) -> List[PartialPlan]:
        self.metrics.joins_enumerated += 1
        # the join step's predicates, classified once per block
        step = facts.steps.get((partial.mask, rel.alias))
        if step is None:
            bit = facts.bit[rel.alias]
            mask = partial.mask | bit
            join_preds = [p for p, m in facts.preds
                          if not m & ~mask and m & ~partial.mask
                          and m & ~bit]
            pairs = equijoin_pairs(join_preds, partial.aliases, {rel.alias})
            equi_set = {
                Comparison("=", o, i).display() for o, i in pairs
            } | {
                Comparison("=", i, o).display() for o, i in pairs
            }
            step = facts.steps[(partial.mask, rel.alias)] = _Step(
                mask, partial.aliases | {rel.alias}, facts.props(mask),
                [(o.name, i.name) for o, i in pairs],
                conjoin([p for p in join_preds
                         if p.display() not in equi_set]))

        # An experiment may pin the strategy used for view/stored inners.
        forced = (
            self.config.forced_view_join
            if rel.kind == "view" and self._restriction_depth == 0
            else None
        )
        forced_stored = (
            self.config.forced_stored_join
            if rel.kind == "stored" and self._restriction_depth == 0
            else None
        )
        candidates: List[PartialPlan] = []
        if (rel.kind in ("stored", "view", "filterset", "recursive")
                and forced in (None, "full")
                and forced_stored in (None, "hash", "merge", "nlj")):
            candidates.extend(self._standard_joins(
                facts, partial, rel, step, only_method=forced_stored))
        if rel.kind == "stored" and forced_stored in (None, "inl"):
            candidates.extend(self._index_nested_loops(facts, partial, rel,
                                                       step))
        if (rel.kind == "view" and self._restriction_depth == 0
                and forced in (None, "nested_iteration")):
            candidates.extend(self._view_probe_joins(facts, partial, rel,
                                                     step, forced=forced))
        view_filter_wanted = (
            rel.kind == "view"
            and (forced in ("filter_join", "bloom")
                 or (forced is None and self.config.enable_filter_join))
        )
        stored_filter_wanted = (
            rel.kind == "stored"
            and (forced_stored in ("filter_join", "bloom")
                 or (forced_stored is None
                     and self.config.enable_filter_join))
        )
        if (self._restriction_depth == 0
                and (view_filter_wanted or stored_filter_wanted)):
            candidates.extend(self._filter_joins(
                facts, partial, rel, step,
                forced=forced if rel.kind == "view" else forced_stored,
            ))
        if rel.kind == "function":
            candidates.extend(self._function_joins(facts, partial, rel,
                                                   step))
        return candidates

    # .................................................. standard join methods

    def _enabled(self, flag: bool) -> bool:
        """Classic methods are always available inside a restriction
        template, whatever the experiment config disables — otherwise a
        filter set could have no way to join with the inner's body."""
        return flag or self._restriction_depth > 0

    def _standard_joins(self, facts, partial, rel, step,
                        only_method: Optional[str] = None):
        """Hash, sort-merge, and block-nested-loops over a computed inner.

        ``only_method`` (experiments) restricts generation to one of
        "hash" / "merge" / "nlj".
        """
        candidates: List[PartialPlan] = []
        access = self._access_plans(rel, facts)
        if not access:
            return candidates
        cheapest = min(access, key=lambda p: p.cost)
        outer_rows = partial.props.rows
        out_rows = step.props.rows
        equi_names, residual = step.equi_names, step.residual
        join_site = partial.site

        def shipped(inner: PartialPlan):
            """The inner's ledger once shipped to the join site when
            needed (fetch-inner), and the recipe for its node."""
            if inner.site == join_site:
                return inner.components, inner.fresh
            comp = inner.components + self.cost_model.ship(
                inner.props.rows, inner.props.row_width)

            def ship():
                node = ShipNode(inner.fresh(), join_site)
                self._finish(node, inner.props.rows, comp)
                return node
            return comp, ship

        if self._enabled(self.config.enable_hash_join) and equi_names \
                and only_method in (None, "hash"):
            hash_comp, hash_inner = shipped(cheapest)
            hash_cost = partial.components + hash_comp
            hash_cost.merge(self.cost_model.hash_join(
                cheapest.props.rows, cheapest.props.row_width,
                outer_rows, out_rows,
            ))
            if residual is not None:
                hash_cost.merge(self.cost_model.filter_rows(out_rows))

            def hash_join():
                node = JoinNode(JoinMethod.HASH, partial.plan, hash_inner(),
                                equi_names, residual)
                node.sort_order = partial.sort_order
                node.site = join_site
                self._finish(node, out_rows, hash_cost)
                return node
            candidates.append(self._extend(partial, rel, step, hash_cost,
                                           partial.sort_order, "hash",
                                           hash_join))

        if self._enabled(self.config.enable_merge_join) and equi_names \
                and only_method in (None, "merge"):
            okeys = tuple(name for name, _ in equi_names)
            ikeys = tuple(name for _, name in equi_names)
            merge_cost = partial.components.snapshot()
            sort_outer = partial.sort_order is None or \
                partial.sort_order[:len(okeys)] != okeys
            if sort_outer:
                merge_cost.merge(self.cost_model.sort(
                    outer_rows, partial.props.row_width))
                outer_sorted = merge_cost.snapshot()
            # pick the access path already sorted on the keys when available
            sorted_inner = None
            for option in access:
                if option.sort_order and option.sort_order[:len(ikeys)] == ikeys:
                    sorted_inner = option
                    break
            inner_choice = sorted_inner or cheapest
            merge_comp, merge_inner = shipped(inner_choice)
            merge_cost.merge(merge_comp)
            if sorted_inner is None:
                merge_cost.merge(self.cost_model.sort(
                    inner_choice.props.rows, inner_choice.props.row_width))
                inner_sorted = merge_cost.snapshot()
            merge_cost.merge(self.cost_model.merge_join(
                outer_rows, inner_choice.props.rows, out_rows))
            if residual is not None:
                merge_cost.merge(self.cost_model.filter_rows(out_rows))

            def merge_join():
                outer, inner = partial.plan, merge_inner()
                if sort_outer:
                    outer = SortNode(outer, [(k, True) for k in okeys])
                    self._finish(outer, outer_rows, outer_sorted)
                if sorted_inner is None:
                    inner = SortNode(inner, [(k, True) for k in ikeys])
                    self._finish(inner, inner_choice.props.rows,
                                 inner_sorted)
                node = JoinNode(JoinMethod.MERGE, outer, inner,
                                equi_names, residual)
                node.sort_order = okeys
                node.site = join_site
                self._finish(node, out_rows, merge_cost)
                return node
            candidates.append(self._extend(partial, rel, step, merge_cost,
                                           okeys, "merge", merge_join))

        if self._enabled(self.config.enable_nested_loops) \
                and only_method in (None, "nlj"):
            nlj_comp, nlj_inner = shipped(cheapest)
            nlj_cost = partial.components + nlj_comp
            nlj_cost.merge(self.cost_model.materialize(
                cheapest.props.rows, cheapest.props.row_width))
            nlj_cost.merge(self.cost_model.block_nested_loops(
                outer_rows, partial.props.row_width,
                cheapest.props.rows, cheapest.props.row_width, out_rows,
            ))

            def nested_loops():
                inner = MaterializeNode(nlj_inner())
                self._finish(inner, cheapest.props.rows, nlj_comp)
                node = JoinNode(JoinMethod.NLJ, partial.plan, inner,
                                equi_names, residual)
                node.site = join_site
                self._finish(node, out_rows, nlj_cost)
                return node
            candidates.append(self._extend(partial, rel, step, nlj_cost,
                                           None, "nlj", nested_loops))
        return candidates

    def _index_nested_loops(self, facts, partial, rel, step):
        """INL on a stored inner; with a remote inner this is System R*'s
        "fetch matches" (one message round-trip per probe)."""
        candidates: List[PartialPlan] = []
        equi_names, residual = step.equi_names, step.residual
        if not self.config.enable_index_nested_loops or not equi_names:
            return candidates
        outer_rows = partial.props.rows
        out_rows = step.props.rows
        base = self.estimator.relation_props(rel)
        locals_ = facts.locals[rel.alias]
        for outer_col, inner_col in equi_names:
            column = inner_col.split(".", 1)[1]
            index = rel.table.index_on(column)
            if index is None:
                continue
            matches = base.rows / max(1.0, base.column(inner_col).distinct)
            components = partial.components.snapshot()
            components.merge(self.cost_model.index_nested_loops(
                outer_rows, rel.table.num_rows, rel.table.num_pages,
                matches, out_rows,
                clustered=(rel.table.clustered_on == column),
                row_width=rel.table.schema.row_width(),
            ))
            if rel.site is not None and rel.site != partial.site:
                # fetch matches: request + reply per probe
                per_probe_bytes = matches * base.row_width
                ship = CostLedger()
                ship.net_msgs += 2 * outer_rows
                ship.net_bytes += outer_rows * (
                    16 + per_probe_bytes
                )
                components.merge(ship)

            def index_join(inner_col=inner_col, components=components):
                other = [
                    Comparison("=", ColumnRef(o), ColumnRef(i))
                    for o, i in equi_names if i != inner_col
                ]
                node = JoinNode(JoinMethod.INL, partial.plan,
                                SeqScanNode(rel, None), equi_names,
                                conjoin(other + ([residual] if residual
                                                 else []) + locals_),
                                index_column=inner_col)
                node.sort_order = partial.sort_order
                node.site = partial.site
                self._finish(node, out_rows, components)
                return node
            candidates.append(self._extend(partial, rel, step, components,
                                           partial.sort_order, "inl",
                                           index_join))
        return candidates

    # ................................................ view-specific methods

    def _bindable_pairs(self, facts, rel: VirtualRelation, equi_names):
        """Equi-join pairs whose inner column can receive a filter set."""
        bindable = facts.bindable.get(rel.alias)
        if bindable is None:
            block_cols = bindable_columns(rel.block)
            bindable = facts.bindable[rel.alias] = {
                base for base, name in zip(rel.base_schema.names(),
                                           rel.block.output_schema().names())
                if name in block_cols
            }
        return [(o, i.split(".", 1)[1]) for o, i in equi_names
                if i.split(".", 1)[1] in bindable]

    def _view_probe_joins(self, facts, partial, rel, step, forced=None):
        """Correlated nested iteration over a view inner."""
        candidates: List[PartialPlan] = []
        if forced != "nested_iteration" and \
                not self.config.enable_nested_iteration:
            return candidates
        equi_names, residual = step.equi_names, step.residual
        bind_pairs = self._bindable_pairs(facts, rel, equi_names)
        if not bind_pairs:
            return candidates
        bound_cols = [v for _, v in bind_pairs]
        coster = self._coster_for(rel, bound_cols, lossy=False)
        per_probe_cost, per_probe_rows = coster.estimate(1.0)
        outer_rows = partial.props.rows
        out_rows = step.props.rows
        components = partial.components.snapshot()
        components.charge_cpu(outer_rows)  # binding setup per probe
        # Charge the per-probe plan cost outer_rows times.
        template = coster.class_for(1.0)
        components.merge(template.components.scaled(outer_rows))
        if residual is not None:
            components.merge(self.cost_model.filter_rows(
                outer_rows * max(per_probe_rows, 0.0)))

        def probe(outer, sort_order, cost):
            inner_labeled = RelabelNode(template.plan, rel.output_schema)
            self._finish(inner_labeled, per_probe_rows, template.components)
            # Equi-join predicates not enforced by the binding, plus the
            # view's local predicates, must still be evaluated on the
            # joined row.
            bound_view_cols = {v for _, v in bind_pairs}
            unbound_equi = [
                Comparison("=", ColumnRef(o), ColumnRef(i))
                for o, i in equi_names
                if i.split(".", 1)[1] not in bound_view_cols
            ]
            full_residual = conjoin(
                unbound_equi + ([residual] if residual else [])
                + facts.locals[rel.alias]
            )
            node = NestedIterationNode(outer, inner_labeled,
                                       coster.param_id, list(bind_pairs),
                                       full_residual)
            node.sort_order = sort_order
            node.site = partial.site
            self._finish(node, out_rows, cost)
            return node
        candidates.append(self._extend(
            partial, rel, step, components, partial.sort_order,
            "nested_iteration",
            lambda: probe(partial.plan, partial.sort_order, components)))

        # Figure 6's "optimized nested iteration": sort the outer on the
        # binding columns so consecutive duplicates reuse the previous
        # probe — one template run per *distinct* binding.
        okeys = tuple(o for o, _ in bind_pairs)
        distinct_probes = self.estimator.filter_set_distinct(
            partial.props, list(okeys))
        if distinct_probes < outer_rows * 0.95:
            sorted_components = partial.components.snapshot()
            sort_outer = partial.sort_order is None or \
                partial.sort_order[:len(okeys)] != okeys
            if sort_outer:
                sorted_components.merge(self.cost_model.sort(
                    outer_rows, partial.props.row_width))
                outer_sorted = sorted_components.snapshot()
            sorted_components.charge_cpu(outer_rows)
            sorted_components.merge(
                template.components.scaled(distinct_probes))
            if residual is not None:
                sorted_components.merge(self.cost_model.filter_rows(
                    outer_rows * max(per_probe_rows, 0.0)))

            def sorted_probe():
                outer = partial.plan
                if sort_outer:
                    outer = SortNode(outer, [(k, True) for k in okeys])
                    self._finish(outer, outer_rows, outer_sorted)
                return probe(outer, okeys, sorted_components)
            candidates.append(self._extend(
                partial, rel, step, sorted_components, okeys,
                "nested_iteration", sorted_probe))
        return candidates

    # ..................................................... the Filter Join

    def _filter_column_choices(self, bind_pairs):
        """Limitation 3: the full column set, plus singletons if enabled."""
        choices = [tuple(bind_pairs)]
        if (self.config.filter_column_strategy == "all_and_singles"
                and len(bind_pairs) > 1):
            choices.extend((pair,) for pair in bind_pairs)
        return choices

    def _production_choices(self, partial: PartialPlan):
        """Production sets allowed by Limitations 1/2.

        Limitation 2 on: just the full outer. Limitation 2 off but 1 on:
        every prefix of the outer's construction sequence. Both off: every
        nonempty subset (exponential — only for the blow-up experiment).
        """
        if self.config.limitation2_full_outer:
            return [partial]
        out = [partial]
        if self.config.limitation1_prefix_production:
            node = partial.parent
            while node is not None:
                out.append(node)
                node = node.parent
            return out
        # Limitation 1 relaxed: cost arbitrary subsets. We approximate each
        # subset's production by the chain prefix that covers it, plus
        # fabricated single-relation productions; this is enough to show
        # the combinatorial growth in candidates considered.
        seen = {p.aliases for p in out}
        node = partial.parent
        while node is not None:
            if node.aliases not in seen:
                out.append(node)
                seen.add(node.aliases)
            node = node.parent
        for r in range(1, len(partial.sequence)):
            for combo in itertools.combinations(partial.sequence, r):
                key = frozenset(combo)
                if key not in seen:
                    seen.add(key)
                    out.append(None)  # counted but not plannable
        return out

    def _filter_joins(self, facts, partial, rel, step, forced=None):
        candidates: List[PartialPlan] = []
        residual = step.residual
        locals_ = facts.locals[rel.alias]  # pushed into a stored inner
        if rel.kind == "view":
            bind_pairs = self._bindable_pairs(facts, rel, step.equi_names)
            # View-local predicates are not pushed into the restricted
            # template; evaluate them after the final join.
            if locals_:
                residual = conjoin(
                    ([residual] if residual else []) + locals_
                )
            locals_ = []
        else:
            bind_pairs = [(o, i.split(".", 1)[1]) for o, i in step.equi_names]
        if not bind_pairs:
            return candidates
        if forced == "filter_join":
            lossy_options = [False]
        elif forced == "bloom":
            lossy_options = [True]
        else:
            lossy_options = [False]
            if self.config.enable_bloom_filter:
                lossy_options.append(True)
        for production in self._production_choices(partial):
            if production is None:
                self.metrics.filter_joins_considered += 1
                self.metrics.plans_considered += 1
                continue
            for chosen in self._filter_column_choices(bind_pairs):
                # every chosen outer column must come from the production set
                if not all(alias_of(o) in production.aliases
                           for o, _ in chosen):
                    continue
                for lossy in lossy_options:
                    self.metrics.filter_joins_considered += 1
                    candidates.append(self._one_filter_join(
                        partial, production, rel, step, residual, locals_,
                        list(chosen), lossy,
                    ))
        return candidates

    def _one_filter_join(self, partial, production, rel, step, residual,
                         locals_, chosen, lossy):
        outer_rows = partial.props.rows
        out_rows = step.props.rows
        outer_cols = [o for o, _ in chosen]
        bound_cols = [v for _, v in chosen]
        filter_distinct = self.estimator.filter_set_distinct(
            production.props, outer_cols
        )
        coster = self._coster_for(rel, bound_cols, lossy, locals_)
        inner_cost, inner_rows = coster.estimate(filter_distinct)
        template = coster.class_for(filter_distinct)

        join_site = partial.site
        model = self.cost_model
        components = partial.components.snapshot()  # JoinCost_P

        # ProductionCost_P: materialize vs recompute (Section 4's min rule)
        mat = model.materialize(production.props.rows,
                                production.props.row_width)
        materialize_production = model.scalar(mat) <= production.cost
        if production.mask != partial.mask:
            # prefix production: the filter set's source is recomputed
            materialize_production = False
        prod = mat if materialize_production else production.components
        components.merge(prod)

        # ProjCost_F: distinct projection of the production set
        sorted_production = (
            production.sort_order is not None
            and set(production.sort_order[:len(outer_cols)]) == set(outer_cols)
        )
        proj = model.dedup(production.props.rows, sorted_production)
        components.merge(proj)

        # AvailCost_F: make the filter available to the inner. A remote
        # inner needs the filter shipped to its site (Section 5.1's
        # "minimal modification" to the formula).
        ship_filter = rel.site is not None and rel.site != join_site
        if ship_filter and lossy:
            avail_f = model.ship_bloom()
        elif ship_filter:
            avail_f = model.ship(
                filter_distinct,
                sum(rel.base_schema.column(c).width for c in bound_cols)
                if rel.kind == "stored" else 8 * len(bound_cols),
            )
        elif lossy:
            avail_f = model.bloom_build(filter_distinct)
        else:
            avail_f = CostLedger()
        components.merge(avail_f)

        # FilterCost_Rk: the parametric estimate of the restricted inner
        filter_cost_ledger = template.components.scaled(
            inner_cost / template.cost if template.cost > 0 else 1.0
        )
        components.merge(filter_cost_ledger)

        # AvailCost_Rk': ship back / materialize the restricted inner.
        # The template plan already ends with a Ship node home when its
        # body is remote (plan_block ships results to the query site),
        # so that cost lives inside FilterCost_Rk; the restricted inner
        # then pipelines into the final join and this term is zero.
        inner_width = rel.output_schema.row_width()

        # FinalJoinCost: rescan production + best unindexed join
        final = model.rescan(production.props.rows,
                             production.props.row_width) \
            if materialize_production else CostLedger()
        hash_cost = model.hash_join(inner_rows, inner_width,
                                    outer_rows, out_rows)
        final.merge(hash_cost)
        if residual is not None:
            final.merge(model.filter_rows(out_rows))
        components.merge(final)

        def filter_join():
            inner_labeled = RelabelNode(template.plan, rel.output_schema)
            self._finish(inner_labeled, inner_rows, template.components)
            node = FilterJoinNode(
                outer=partial.plan,
                inner_template=inner_labeled,
                param_id=coster.param_id,
                bind_pairs=list(chosen),
                final_equi_pairs=list(step.equi_names),
                residual=residual,
                materialize_production=materialize_production,
                lossy=lossy,
                bloom_bits=self.config.bloom_bits,
            )
            node.component_estimates = {
                "JoinCost_P": partial.cost,
                "ProductionCost_P": model.scalar(prod),
                "ProjCost_F": model.scalar(proj),
                "AvailCost_F": model.scalar(avail_f),
                "FilterCost_Rk": inner_cost,
                "AvailCost_Rk'": 0.0,
                "FinalJoinCost": model.scalar(final),
            }
            node.est_filter_rows = filter_distinct
            node.production = tuple(sorted(production.aliases))
            node.production_rows = production.props.rows
            node.ship_filter = ship_filter
            node.site = join_site
            self._finish(node, out_rows, components)
            return node
        return self._extend(partial, rel, step, components, None,
                            "bloom" if lossy else "filter_join", filter_join)

    # ...................................................... function joins

    def _function_joins(self, facts, partial, rel, step):
        candidates: List[PartialPlan] = []
        needed = set(rel.arg_columns)
        bound = {}
        for outer_col, inner_col in step.equi_names:
            arg = inner_col.split(".", 1)[1]
            if arg in needed:
                bound[arg] = outer_col
        if set(bound) != needed:
            return candidates  # not all arguments bound yet
        bind_pairs = [(bound[a], a) for a in rel.arg_columns]
        outer_rows = partial.props.rows
        out_rows = step.props.rows
        other_equi = [
            Comparison("=", ColumnRef(o), ColumnRef(i))
            for o, i in step.equi_names
            if i.split(".", 1)[1] not in needed
        ]
        full_residual = conjoin(
            other_equi + ([step.residual] if step.residual else [])
            + facts.locals[rel.alias]
        )
        distinct_args = self.estimator.filter_set_distinct(
            partial.props, [o for o, _ in bind_pairs]
        )
        model = self.cost_model
        modes = [("repeated", outer_rows, False),
                 ("memo", distinct_args, False)]
        if self.config.enable_filter_join:
            modes.append(("filter", distinct_args, True))
        forced_mode = self.config.forced_function_join
        if forced_mode is not None and self._restriction_depth == 0:
            if forced_mode == "filter":
                modes = [("filter", distinct_args, True)]
            else:
                modes = [m for m in modes if m[0] == forced_mode]
        for mode, invocations, consecutive in modes:
            components = partial.components.snapshot()
            components.merge(model.function_invocations(
                invocations, rel.cost_per_invocation,
                consecutive=consecutive,
                locality_factor=rel.locality_factor,
            ))
            components.merge(model.filter_rows(outer_rows))
            if mode == "filter":
                components.merge(model.dedup(outer_rows))
                components.merge(model.materialize(
                    outer_rows, partial.props.row_width))
                components.merge(model.hash_join(
                    distinct_args * rel.rows_per_invocation, 32,
                    outer_rows, out_rows,
                ))
            sort_order = partial.sort_order if mode != "filter" else None

            def function_join(mode=mode, sort_order=sort_order,
                              components=components):
                node = FunctionJoinNode(partial.plan, rel, bind_pairs, mode,
                                        full_residual)
                node.sort_order = sort_order
                node.site = partial.site
                self._finish(node, out_rows, components)
                return node
            candidates.append(self._extend(
                partial, rel, step, components, sort_order,
                "function_%s" % mode, function_join,
            ))
        return candidates

    # -------------------------------------------------------------- costers

    def _coster_for(self, rel: RelationRef, bound_cols: Sequence[str],
                    lossy: bool, locals_: Sequence[Expr] = ()
                    ) -> ParametricInnerCoster:
        """The coster of ``rel`` restricted on ``bound_cols``, one per
        planner; ``locals_`` are a stored inner's local conjuncts, which
        its restricted block applies."""
        key = (id(rel), tuple(sorted(bound_cols)), lossy)
        coster = self._costers.get(key)
        if coster is None:  # a lookup creates none of the closure cells
            coster = self._new_coster(key, rel, bound_cols, lossy, locals_)
        return coster

    def _new_coster(self, key, rel, bound_cols, lossy,
                    locals_) -> ParametricInnerCoster:
        param_id = "fset%d" % next(self._param_counter)
        bound = list(bound_cols)
        props = self.estimator.relation_props(rel)
        domain = 1.0
        for col in bound:
            domain *= max(
                1.0, props.column("%s.%s" % (rel.alias, col)).distinct)

        def builder(assumed_rows, assumed_sel):
            restricted = restricted_block(
                rel, bound, param_id, lossy=lossy,
                local_predicates=locals_, assumed_selectivity=assumed_sel)
            restricted.filter_relation.assumed_rows = assumed_rows
            return restricted

        fpr_fn = (self.cost_model.bloom_false_positive_rate
                  if lossy else None)

        def plan_fn(restricted_block):
            # Inside a restriction template, only the classic join methods
            # apply (Section 4.1: the nested invocation costs the
            # restriction with well-known filtering methods); this also
            # keeps the nested optimization from recursing into itself.
            self._restriction_depth += 1
            try:
                plan = self.plan_block(restricted_block)
            finally:
                self._restriction_depth -= 1
            self.metrics.nested_optimizations += 1
            return plan

        # Looked up only now: computing the domain may have built
        # statistics lazily, which the inputs read.
        memo_key = self._memo_key(rel, key[1], lossy, locals_, props)
        stored = None
        if memo_key is not None:
            names = (rel.input_names if rel.kind == "view"
                     else (rel.table.name.lower(),))
            stored = self.memo.lookup(memo_key, self.catalog.inputs(names))
            if stored is not None:
                self.metrics.restriction_memo_hits += 1
            else:
                self.metrics.restriction_memo_misses += 1

        def keep_classes(numbers):
            self.metrics.restriction_memo_evictions += self.memo.store(
                memo_key, self.catalog.inputs(names), numbers)

        coster = ParametricInnerCoster(
            builder,
            plan_fn,
            domain_distinct=domain,
            num_classes=self.config.parametric_classes,
            enabled=self.config.enable_parametric,
            fpr_fn=fpr_fn,
            stored=stored,
            on_classes=keep_classes if memo_key is not None else None,
        )
        coster.param_id = param_id
        coster.relation, coster.columns, coster.lossy = (
            rel.alias, tuple(bound), lossy)
        self._costers[key] = coster
        self._cache_pins.append(rel)
        return coster

    def _memo_key(self, rel: RelationRef, bound_cols: Tuple[str, ...],
                  lossy: bool, locals_: Sequence[Expr],
                  props: RelProps) -> Optional[tuple]:
        """What one coster's classes depend on besides the inputs of
        the inner's relations, or None when they must not outlive the
        statement: exact costing keeps no classes, and a view reference
        without a catalog name (CTE, inline subquery) is defined by its
        statement.
        The inner's local predicates enter by :meth:`_class_key`, so a
        new constant whose selectivity was seen before is a hit.
        """
        if not self.config.enable_parametric:
            return None
        if rel.kind == "view":
            name = rel.catalog_name
            if name is None:
                return None
        else:
            name = rel.table.name
        return (self.config.fingerprint, rel.kind, name, rel.site, rel.alias,
                bound_cols, lossy,
                tuple(self._class_key(p, props) for p in locals_))

    def _class_key(self, pred: Expr, props: RelProps):
        """One local conjunct as a nested optimization of its inner reads
        it. A literal is read only through its selectivity (the sargable
        test reads the shape, no cost formula reads an index probe's
        value), so a column-literal comparison or an IN-list of literals
        is its shape, its literals' types and that selectivity; AND / OR
        / NOT keep their structure; anything else is its text."""
        if isinstance(pred, BooleanExpr):
            return (pred.op,) + tuple(self._class_key(arg, props)
                                      for arg in pred.args)
        if isinstance(pred, Comparison):
            shaped = pred
            if isinstance(pred.left, Literal) and \
                    isinstance(pred.right, ColumnRef):
                shaped = pred.flipped()
            if isinstance(shaped.left, ColumnRef) and \
                    isinstance(shaped.right, Literal):
                return (shaped.op, shaped.left.name,
                        type(shaped.right.value).__name__,
                        self.estimator.selectivity(shaped, props))
        elif isinstance(pred, InList):
            return ("IN", pred.operand.display(), pred.negated,
                    tuple(type(value).__name__ for value in pred.values),
                    self.estimator.selectivity(pred, props))
        return pred.display()

    # -------------------------------------------------------------- helpers

    def _extend(self, partial: PartialPlan, rel: RelationRef, step: _Step,
                components: CostLedger, sort_order, method: str,
                build: Callable[[], PlanNode]) -> PartialPlan:
        return PartialPlan(step.mask, step.aliases,
                           partial.sequence + (rel.alias,), step.props,
                           self.cost_model.scalar(components), components,
                           sort_order, partial.site, method, build, partial)

    def _finish(self, node: PlanNode, rows: float,
                components: CostLedger) -> None:
        node.est_rows = max(0.0, rows)
        node.est_components = components.snapshot()
        node.est_cost = self.cost_model.scalar(components)

