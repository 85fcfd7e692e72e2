"""Magic-sets rewriting over query blocks.

Two consumers share this module:

- The optimizer, which uses :func:`restricted_block` to build the
  *restricted inner* of a Filter Join: the inner's definition with the
  filter set injected as an extra relation (exactly Figure 2's
  ``RestrictedDepAvgSal``) or, lossily, as a Bloom-filter probe.
- The textual rewriter :func:`magic_rewrite`, which, given a SIPS choice
  (production aliases + bound columns), emits the full Figure-2 shape —
  PartialResult / Filter / RestrictedView / final query — as query blocks
  and SQL text. This is what a rewrite-based system like Starburst would
  produce, and experiment C3 compares it against the cost-based plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.block import QueryBlock, SelectItem
from ..algebra.predicates import aliases_in
from ..algebra.relations import (
    FilterSetRelation,
    RelationRef,
    StoredRelation,
    VirtualRelation,
)
from ..errors import PlanError, RecursiveViewError
from ..expr.nodes import ColumnRef, Comparison, Expr, InList, Literal, \
    RuntimeMembership
from ..storage.schema import Column, Schema


def bindable_columns(block) -> Dict[str, str]:
    """Map a block's output column names to the body columns they expose.

    Only output columns that are direct references to a body column (for
    grouped blocks: to a GROUP BY column) can receive a filter set —
    restricting on them provably cannot change the surviving groups/rows.
    Computed expressions, aggregate results, and UNION outputs are not
    bindable.
    """
    if not isinstance(block, QueryBlock):
        return {}  # e.g. a UnionQuery view body: full computation only
    mapping: Dict[str, str] = {}
    if block.is_grouped:
        group_out_to_body: Dict[str, str] = {}
        for ref in block.group_by:
            group_out_to_body[ref.name.split(".")[-1]] = ref.name
        if block.select_items:
            for item, out_name in _items_with_names(block):
                if isinstance(item.expr, ColumnRef):
                    body = group_out_to_body.get(item.expr.name)
                    if body is not None:
                        mapping[out_name] = body
        else:
            mapping.update(group_out_to_body)
        return mapping
    if block.select_items:
        for item, out_name in _items_with_names(block):
            if isinstance(item.expr, ColumnRef):
                mapping[out_name] = item.expr.name
    else:
        for column in block.combined_schema().columns:
            mapping[column.name] = column.name
    return mapping


def _items_with_names(block: QueryBlock):
    for item in block.select_items:
        yield item, item.output_name


@dataclass
class RestrictedInner:
    """A restricted inner block plus the filter-set bookkeeping.

    ``filter_schema`` is the (unqualified) schema of the filter set;
    ``bound_output_cols`` names the inner's output columns the filter
    applies to, positionally matching ``filter_schema``.
    """

    block: QueryBlock
    filter_relation: FilterSetRelation
    filter_schema: Schema
    bound_output_cols: List[str]


_FILTER_ALIAS = "_F"


def _fresh_filter_alias(relations) -> str:
    """A filter-set alias that cannot collide with the block's own."""
    taken = {rel.alias for rel in relations}
    alias = _FILTER_ALIAS
    counter = 2
    while alias in taken:
        alias = "%s%d" % (_FILTER_ALIAS, counter)
        counter += 1
    return alias


def _bindable_body_columns(view: VirtualRelation) -> Dict[str, str]:
    """The view's bindable columns, by the names callers see (after any
    view column aliases), mapped to the body columns they expose."""
    bindable = bindable_columns(view.block)
    names = zip(view.base_schema.names(), view.block.output_schema().names())
    return {base: bindable[inner] for base, inner in names
            if inner in bindable}


def restricted_block(rel: RelationRef, bound_cols: Sequence[str],
                     param_id: str, *, lossy: bool,
                     local_predicates: Sequence[Expr] = (),
                     assumed_selectivity: float = 1.0) -> RestrictedInner:
    """``rel`` restricted by the filter set ``param_id`` on
    ``bound_cols`` — magic rewriting of a view, the (local or remote)
    semi-join of a stored relation, and the Bloom-filter form of either.

    The kind of ``rel`` decides only where the inner body comes from: a
    view's own block, restricted on the body columns its bound output
    columns expose, or the stored relation with ``local_predicates``
    applied and its full (unqualified) row as output. ``lossy`` decides
    only how the restriction enters that body: exactly, the filter set
    joins in as one more relation (Figure 2's ``RestrictedDepAvgSal``);
    lossily, a :class:`RuntimeMembership` tests a Bloom filter whose
    false positives the Filter Join's final join discards (Section
    3.2's "lossy fashion"). Either way the result has the output schema
    of the unrestricted inner.
    """
    if not bound_cols:
        raise PlanError("a filter set needs at least one bound column")
    if rel.kind == "view":
        body = rel.block
        exposed = _bindable_body_columns(rel)
        for name in bound_cols:
            if name not in exposed:
                raise PlanError("column %r of view %s is not bindable"
                                % (name, rel.view_name))
        body_cols = [ColumnRef(exposed[name]) for name in bound_cols]
    else:
        body = QueryBlock(
            relations=[StoredRelation(rel.alias, rel.table, site=rel.site)],
            predicates=list(local_predicates),
            select_items=[
                SelectItem(ColumnRef("%s.%s" % (rel.alias, col.name)),
                           alias=col.name)
                for col in rel.base_schema.columns
            ],
        )
        body_cols = [ColumnRef("%s.%s" % (rel.alias, name))
                     for name in bound_cols]
    filter_schema = Schema(
        Column(name, rel.base_schema.column(name).dtype)
        for name in bound_cols
    )
    filter_rel = FilterSetRelation(_fresh_filter_alias(body.relations),
                                   filter_schema, param_id)
    if lossy:
        relations = list(body.relations)
        restriction: List[Expr] = [
            RuntimeMembership(param_id, body_cols, assumed_selectivity)]
    else:
        relations = [filter_rel] + list(body.relations)
        restriction = [
            Comparison("=", ColumnRef("%s.%s" % (filter_rel.alias, name)),
                       body_col)
            for name, body_col in zip(bound_cols, body_cols)
        ]
    block = replace(body, relations=relations,
                    predicates=restriction + list(body.predicates),
                    order_by=[])
    return RestrictedInner(block, filter_rel, filter_schema,
                           list(bound_cols))


# --------------------------------------------------------------- Figure 2

@dataclass
class MagicRewriting:
    """The Figure-2 decomposition of one query.

    ``partial_result`` computes the production set; ``filter_block``
    distinct-projects it into the filter set; ``restricted_view`` is the
    view with the filter joined in; ``final_block`` joins everything
    back. ``sql`` renders all four as CREATE VIEW + SELECT text.
    """

    partial_result: QueryBlock
    filter_block: QueryBlock
    restricted_view: QueryBlock
    final_block: QueryBlock
    view_alias: str
    bound_columns: List[str]

    def sql(self) -> str:
        parts = [
            "CREATE VIEW PartialResult AS\n(%s);" %
            self.partial_result.display_sql(indent=2),
            "CREATE VIEW FilterSet AS\n(%s);" %
            self.filter_block.display_sql(indent=2),
            "CREATE VIEW RestrictedView AS\n(%s);" %
            self.restricted_view.display_sql(indent=2),
            "%s;" % self.final_block.display_sql(),
        ]
        return "\n\n".join(parts)


def magic_rewrite(block: QueryBlock, view_alias: str,
                  production_aliases: Optional[Sequence[str]] = None,
                  bound_columns: Optional[Sequence[str]] = None) -> MagicRewriting:
    """Apply Figure-2 magic rewriting to ``block`` for one view.

    ``production_aliases`` selects the SIPS production set (default: every
    other relation in the block); ``bound_columns`` selects which of the
    view's bindable equi-join columns feed the filter set (default: all).
    """
    view = block.relation(view_alias)
    if view.kind == "recursive":
        raise RecursiveViewError(
            "%r is a recursive view: Figure-2 magic rewriting only applies "
            "to non-recursive views; recursive relations get magic-sets "
            "restriction through the planner's fixpoint candidates instead"
            % view_alias,
            view_name=getattr(view, "view_name", view_alias),
        )
    if view.kind != "view":
        raise PlanError("%r is not a view in this block" % view_alias)
    other_aliases = [r.alias for r in block.relations if r.alias != view_alias]
    if production_aliases is None:
        production_aliases = other_aliases
    production_aliases = list(production_aliases)
    unknown = set(production_aliases) - set(other_aliases)
    if unknown:
        raise PlanError("production aliases %s not in block" % sorted(unknown))
    if not production_aliases:
        raise PlanError("production set cannot be empty")

    production_set = set(production_aliases)
    # Candidate filter columns: view columns equated — directly or through
    # the transitive closure of equalities — with a production column.
    from ..algebra.predicates import equality_classes

    candidates: List[Tuple[str, str]] = []  # (production col, view base col)
    for members in equality_classes(block.predicates):
        view_cols = [m for m in members
                     if m.startswith(view_alias + ".")]
        production_cols = [
            m for m in members
            if m.split(".", 1)[0] in production_set
        ]
        if view_cols and production_cols:
            candidates.append(
                (sorted(production_cols)[0],
                 sorted(view_cols)[0].split(".", 1)[1])
            )
    exposed = _bindable_body_columns(view)
    candidates = [
        (prod, vcol) for prod, vcol in candidates if vcol in exposed
    ]
    if bound_columns is not None:
        chosen = [c for c in candidates if c[1] in set(bound_columns)]
    else:
        chosen = candidates
    if not chosen:
        raise PlanError(
            "no bindable equi-join columns between %s and the production set"
            % view_alias
        )

    # PartialResult: production relations, their internal predicates, and
    # every column of theirs the final block needs.
    production_rels = [block.relation(a) for a in production_aliases]
    production_preds = [
        p for p in block.predicates
        if aliases_in(p) and aliases_in(p) <= production_set
    ]
    needed: List[str] = []
    for rel in production_rels:
        needed.extend(rel.output_schema.names())
    partial_items = [
        SelectItem(ColumnRef(name), alias=name.replace(".", "_"))
        for name in needed
    ]
    partial_result = QueryBlock(
        relations=production_rels,
        predicates=production_preds,
        select_items=partial_items,
    )

    # FilterSet: DISTINCT projection of the chosen production columns.
    filter_items = [
        SelectItem(ColumnRef(prod.replace(".", "_")), alias=vcol)
        for prod, vcol in chosen
    ]
    pr_rel = VirtualRelation("P", "PartialResult", partial_result)
    filter_block = QueryBlock(
        relations=[pr_rel],
        predicates=[],
        select_items=[
            SelectItem(ColumnRef("P.%s" % item.expr.name), alias=item.alias)
            for item in filter_items
        ],
        distinct=True,
    )

    # RestrictedView: the view body joined with the filter set.
    restricted = restricted_block(
        view, [vcol for _, vcol in chosen], "magic", lossy=False
    )
    f_rel = VirtualRelation("F", "FilterSet", filter_block)
    restricted_relations = [f_rel] + [
        r for r in restricted.block.relations if r.kind != "filterset"
    ]
    internal_alias = restricted.filter_relation.alias
    restricted_preds = [
        p.rename_columns({"%s.%s" % (internal_alias, vcol): "F.%s" % vcol
                          for _, vcol in chosen})
        for p in restricted.block.predicates
    ]
    restricted_view = QueryBlock(
        relations=restricted_relations,
        predicates=restricted_preds,
        select_items=restricted.block.select_items,
        group_by=restricted.block.group_by,
        aggregates=restricted.block.aggregates,
        having=restricted.block.having,
        distinct=restricted.block.distinct,
    )

    # Final block: PartialResult x RestrictedView x untouched relations.
    untouched = [
        r for r in block.relations
        if r.alias != view_alias and r.alias not in production_set
    ]
    rv_rel = VirtualRelation(view_alias, "RestrictedView", restricted_view,
                             column_aliases=view.base_schema.names())
    pr_rename = {name: "P.%s" % name.replace(".", "_") for name in needed}
    final_preds = []
    for pred in block.predicates:
        refs = aliases_in(pred)
        if refs and refs <= production_set:
            continue  # already applied inside PartialResult
        final_preds.append(pred.rename_columns(pr_rename))
    final_items = []
    for item in block.select_items:
        final_items.append(SelectItem(
            item.expr.rename_columns(pr_rename), alias=item.output_name,
        ))
    final_block = QueryBlock(
        relations=[VirtualRelation("P", "PartialResult", partial_result),
                   rv_rel] + untouched,
        predicates=final_preds,
        select_items=final_items,
        group_by=[g.rename_columns(pr_rename) for g in block.group_by],
        aggregates=block.aggregates,
        having=block.having,
        distinct=block.distinct,
        order_by=list(block.order_by),
        limit=block.limit,
    )
    return MagicRewriting(
        partial_result=partial_result,
        filter_block=filter_block,
        restricted_view=restricted_view,
        final_block=final_block,
        view_alias=view_alias,
        bound_columns=[vcol for _, vcol in chosen],
    )


# ------------------------------------------------- recursive magic sets

def magic_safe_positions(relation) -> set:
    """Output positions of a recursive relation whose value passes
    *unchanged* from the delta through the recursive branch.

    A position is safe when the recursive branch's select item at that
    position is a direct reference to the delta's column at the same
    position. For such a column, every recursive output row inherits its
    value from some delta row, so by induction
    ``fixpoint(sigma(base)) == sigma(fixpoint(base))`` for any predicate
    over safe columns — the magic-sets condition for pushing query
    bindings into the fixpoint seed.
    """
    block = relation.recursive_block
    delta_alias = None
    delta_names: List[str] = []
    for rel in block.relations:
        if getattr(rel, "param_id", None) == relation.delta_param:
            delta_alias = rel.alias
            delta_names = rel.base_schema.names()
    if delta_alias is None or not block.select_items:
        return set()
    safe = set()
    for pos, item in enumerate(block.select_items):
        expr = item.expr
        if not isinstance(expr, ColumnRef) or "." not in expr.name:
            continue
        alias, col = expr.name.split(".", 1)
        if alias != delta_alias:
            continue
        try:
            if delta_names.index(col) == pos:
                safe.add(pos)
        except ValueError:
            pass
    return safe


@dataclass
class RecursiveBinding:
    """One query binding pushable into a recursive relation's seed."""

    position: int          # output column position it restricts
    predicate: Expr        # the original (qualified) predicate

    def pushed(self, base_names: Sequence[str]) -> Expr:
        """The same restriction, renamed onto a base plan's output."""
        target = ColumnRef(base_names[self.position])
        pred = self.predicate
        if isinstance(pred, Comparison):
            if isinstance(pred.left, Literal):
                pred = pred.flipped()
            return Comparison(pred.op, target, pred.right)
        if isinstance(pred, InList):
            return InList(target, pred.values, negated=False)
        raise PlanError("predicate %r is not pushable" % pred.display())


def recursive_magic_bindings(relation, predicates):
    """Split a consuming block's local predicates over ``relation`` into
    ``(pushable, remaining)``.

    Pushable predicates are literal comparisons (or non-negated IN lists)
    over magic-safe output columns; they may seed the fixpoint. Everything
    else stays above the fixpoint. Restriction commutes with the fixpoint
    only on safe columns, so this is deliberately conservative.
    """
    safe = magic_safe_positions(relation)
    if not safe:
        return [], list(predicates)
    pos_by_name = {
        "%s.%s" % (relation.alias, name): pos
        for pos, name in enumerate(relation.base_schema.names())
    }
    pushable: List[RecursiveBinding] = []
    remaining: List[Expr] = []
    for pred in predicates:
        pos = _pushable_position(pred, pos_by_name, safe)
        if pos is None:
            remaining.append(pred)
        else:
            pushable.append(RecursiveBinding(pos, pred))
    return pushable, remaining


def _pushable_position(pred, pos_by_name, safe):
    if isinstance(pred, Comparison):
        left, right = pred.left, pred.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            pos = pos_by_name.get(left.name)
            if pos is not None and pos in safe:
                return pos
        return None
    if isinstance(pred, InList) and not pred.negated \
            and isinstance(pred.operand, ColumnRef):
        pos = pos_by_name.get(pred.operand.name)
        if pos is not None and pos in safe:
            return pos
    return None
