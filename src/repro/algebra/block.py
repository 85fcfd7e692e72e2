"""Query blocks: the canonical bound form of a single SELECT.

A :class:`QueryBlock` is what the SQL binder produces and the optimizer
consumes: a FROM list of :class:`RelationRef` entries, a conjunctive WHERE
predicate over alias-qualified columns, optional GROUP BY / aggregates /
HAVING, a final projection, and optional DISTINCT / ORDER BY.

Canonical-form rules (enforced by :meth:`validate`):

- ``predicates`` is a flat list of conjuncts over the *combined schema*
  (the concatenation of every relation's qualified output schema).
- In a grouped block, ``select_items`` reference only the group output
  schema (group columns by their output names, aggregates by alias).
- In an ungrouped block, ``select_items`` are arbitrary scalar
  expressions over the combined schema.

Views are query blocks too; :class:`VirtualRelation` wraps one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import BindError
from ..expr.aggregates import AggregateSpec
from ..expr.nodes import ColumnRef, Expr, conjoin
from ..storage.schema import Column, Schema
from .relations import RelationRef


def _output_name(expr: Expr, alias: Optional[str]) -> str:
    """The output column name for a select item."""
    if alias:
        return alias
    if isinstance(expr, ColumnRef):
        # strip the qualifier: E.did -> did
        return expr.name.split(".")[-1]
    raise BindError(
        "select item %s needs an explicit alias" % expr.display()
    )


@dataclass
class SelectItem:
    """One output column: an expression and its output name."""

    expr: Expr
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        return _output_name(self.expr, self.alias)

    def display(self) -> str:
        rendered = self.expr.display()
        if self.alias and rendered != self.alias:
            return "%s AS %s" % (rendered, self.alias)
        return rendered


@dataclass
class QueryBlock:
    """A single bound SELECT block (see module docstring)."""

    relations: List[RelationRef]
    predicates: List[Expr] = field(default_factory=list)
    select_items: List[SelectItem] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)
    having: Optional[Expr] = None
    distinct: bool = False
    order_by: List[Tuple[ColumnRef, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    # derived schemas, on first call (the relations, grouping and
    # select items of a bound block do not change)
    _grouped: Optional[Schema] = field(default=None, init=False,
                                       repr=False, compare=False)
    _output: Optional[Schema] = field(default=None, init=False, repr=False,
                                      compare=False)

    # ---------------------------------------------------------------- schemas

    def combined_schema(self) -> Schema:
        """The join row schema: all relations' qualified columns, in
        FROM-list order."""
        schema = Schema(())
        for rel in self.relations:
            schema = schema.concat(rel.output_schema)
        return schema

    @property
    def is_grouped(self) -> bool:
        return bool(self.group_by) or bool(self.aggregates)

    def group_output_schema(self) -> Schema:
        """Schema after grouping: group columns (unqualified output names)
        then aggregate aliases."""
        if not self.is_grouped:
            raise BindError("block has no GROUP BY / aggregates")
        if self._grouped is None:
            combined = self.combined_schema()
            columns = []
            for ref in self.group_by:
                source = combined.column(ref.name)
                columns.append(source.renamed(ref.name.split(".")[-1]))
            for agg in self.aggregates:
                columns.append(Column(agg.alias, agg.output_dtype(combined)))
            self._grouped = Schema(columns)
        return self._grouped

    def projection_input_schema(self) -> Schema:
        """The schema select_items are written over."""
        return (
            self.group_output_schema() if self.is_grouped
            else self.combined_schema()
        )

    def output_schema(self) -> Schema:
        """The block's final output schema."""
        if self._output is None:
            source = self.projection_input_schema()
            self._output = source if not self.select_items else Schema(
                Column(item.output_name, item.expr.dtype(source))
                for item in self.select_items
            )
        return self._output

    # ------------------------------------------------------------- utilities

    def relation(self, alias: str) -> RelationRef:
        for rel in self.relations:
            if rel.alias == alias:
                return rel
        raise BindError("no relation aliased %r in block" % alias)

    def aliases(self) -> List[str]:
        return [rel.alias for rel in self.relations]

    def validate(self) -> None:
        """Check the canonical-form rules; raises BindError on violation."""
        seen = set()
        for rel in self.relations:
            if rel.alias in seen:
                raise BindError("duplicate alias %r in FROM list" % rel.alias)
            seen.add(rel.alias)
        combined = self.combined_schema()
        for pred in self.predicates:
            for name in pred.columns():
                combined.index_of(name)  # raises if unknown
        for ref in self.group_by:
            combined.index_of(ref.name)
        for agg in self.aggregates:
            if agg.argument is not None:
                for name in agg.argument.columns():
                    combined.index_of(name)
        projection_input = self.projection_input_schema()
        for item in self.select_items:
            for name in item.expr.columns():
                projection_input.index_of(name)
        if self.having is not None:
            if not self.is_grouped:
                raise BindError("HAVING requires GROUP BY")
            group_schema = self.group_output_schema()
            for name in self.having.columns():
                group_schema.index_of(name)
        output = self.output_schema()
        for ref, _ascending in self.order_by:
            output.index_of(ref.name)

    def _grouped_rendering(self, expr: Expr) -> str:
        """Render an expression over the group-output schema back to
        parseable SQL: aggregate aliases become their calls, group-output
        names become the underlying qualified columns."""
        agg_text = {}
        for agg in self.aggregates:
            arg = "*" if agg.argument is None else agg.argument.display()
            agg_text[agg.alias] = "%s(%s)" % (agg.function.upper(), arg)
        group_text = {
            ref.name.split(".")[-1]: ref.name for ref in self.group_by
        }

        def render(node: Expr) -> str:
            if isinstance(node, ColumnRef):
                if node.name in agg_text:
                    return agg_text[node.name]
                return group_text.get(node.name, node.name)
            from ..expr.nodes import Arithmetic, BooleanExpr, Comparison
            if isinstance(node, Comparison):
                return "%s %s %s" % (render(node.left), node.op,
                                     render(node.right))
            if isinstance(node, Arithmetic):
                return "(%s %s %s)" % (render(node.left), node.op,
                                       render(node.right))
            if isinstance(node, BooleanExpr):
                if node.op == "NOT":
                    return "NOT (%s)" % render(node.args[0])
                joiner = " %s " % node.op
                return "(%s)" % joiner.join(render(a) for a in node.args)
            return node.display()

        return render(expr)

    def display_sql(self, indent: int = 0) -> str:
        """Render back to SQL text (used by EXPLAIN and the rewriter).

        Grouped blocks are rendered through :meth:`_grouped_rendering` so
        the emitted text re-parses (aggregate aliases become calls)."""
        pad = " " * indent
        parts = []
        select = "SELECT "
        if self.distinct:
            select += "DISTINCT "
        if self.select_items:
            rendered_items = []
            for item in self.select_items:
                if self.is_grouped:
                    body = self._grouped_rendering(item.expr)
                    name = item.output_name
                    rendered_items.append(
                        body if body == name else "%s AS %s" % (body, name)
                    )
                else:
                    rendered_items.append(item.display())
            select += ", ".join(rendered_items)
        else:
            select += "*"
        parts.append(pad + select)
        from_entries = []
        for rel in self.relations:
            name = rel.display_name()
            entry = name if name == rel.alias else "%s %s" % (name, rel.alias)
            from_entries.append(entry)
        parts.append(pad + "FROM " + ", ".join(from_entries))
        if self.predicates:
            where = conjoin(self.predicates)
            parts.append(pad + "WHERE " + where.display())
        if self.group_by:
            parts.append(
                pad + "GROUP BY " + ", ".join(g.display() for g in self.group_by)
            )
        if self.having is not None:
            parts.append(pad + "HAVING " + self._grouped_rendering(self.having))
        if self.order_by:
            rendered = ", ".join(
                "%s%s" % (ref.display(), "" if asc else " DESC")
                for ref, asc in self.order_by
            )
            parts.append(pad + "ORDER BY " + rendered)
        return "\n".join(parts)


@dataclass
class UnionQuery:
    """A bound UNION [ALL] chain (left-associative SQL semantics).

    ``all_flags[i]`` keeps duplicates across the link joining the
    accumulated prefix with ``parts[i+1]``; a plain UNION link
    de-duplicates everything accumulated so far.
    """

    parts: List[QueryBlock]
    all_flags: List[bool]
    order_by: List[Tuple[ColumnRef, bool]] = field(default_factory=list)
    limit: Optional[int] = None

    def output_schema(self) -> Schema:
        """The union's schema: first part's names, promoted types."""
        from ..storage.schema import DataType

        schemas = [part.output_schema() for part in self.parts]
        first = schemas[0]
        for other in schemas[1:]:
            if len(other) != len(first):
                raise BindError(
                    "UNION branches produce %d vs %d columns"
                    % (len(first), len(other))
                )
        columns = []
        for position, col in enumerate(first.columns):
            dtypes = {s.columns[position].dtype for s in schemas}
            if len(dtypes) == 1:
                dtype = col.dtype
            elif dtypes <= {DataType.INT, DataType.FLOAT}:
                dtype = DataType.FLOAT
            else:
                raise BindError(
                    "UNION branch column %d has incompatible types %s"
                    % (position, sorted(d.value for d in dtypes))
                )
            columns.append(Column(col.name, dtype))
        return Schema(columns)

    def validate(self) -> None:
        if len(self.parts) < 2:
            raise BindError("UNION needs at least two branches")
        if len(self.all_flags) != len(self.parts) - 1:
            raise BindError("UNION flag/branch arity mismatch")
        for part in self.parts:
            part.validate()
        output = self.output_schema()
        for ref, _asc in self.order_by:
            output.index_of(ref.name)

    def display_sql(self, indent: int = 0) -> str:
        pad = " " * indent
        pieces = [self.parts[0].display_sql(indent)]
        for flag, part in zip(self.all_flags, self.parts[1:]):
            pieces.append(pad + ("UNION ALL" if flag else "UNION"))
            pieces.append(part.display_sql(indent))
        if self.order_by:
            rendered = ", ".join(
                "%s%s" % (ref.display(), "" if asc else " DESC")
                for ref, asc in self.order_by
            )
            pieces.append(pad + "ORDER BY " + rendered)
        if self.limit is not None:
            pieces.append(pad + "LIMIT %d" % self.limit)
        return "\n".join(pieces)
