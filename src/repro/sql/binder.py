"""Name resolution and semantic analysis: AST -> bound QueryBlock.

The binder resolves FROM-list names against the catalog (tables, views,
registered function relations), qualifies every column reference with its
relation alias, separates aggregates from scalar expressions, and emits a
:class:`~repro.algebra.block.QueryBlock` in canonical form.

Views are bound *lazily but eagerly-nested*: a view name in a FROM list is
parsed and bound into its own QueryBlock, wrapped in a
:class:`VirtualRelation`. The optimizer — not the binder — decides whether
that virtual relation is fully computed, iterated, or filter-joined.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..algebra.block import QueryBlock, SelectItem, UnionQuery
from ..algebra.relations import (
    FilterSetRelation,
    RecursiveRelation,
    RelationRef,
    StoredRelation,
    VirtualRelation,
)
from ..errors import BindError, RecursiveViewError
from ..expr.aggregates import AGGREGATE_FUNCTIONS, AggregateSpec
from ..expr.nodes import (
    Arithmetic,
    BooleanExpr,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    Parameter,
)
from ..storage.catalog import Catalog
from ..storage.schema import Schema
from . import ast
from .parser import parse, parse_select


class Binder:
    """Binds parsed SELECT statements against a catalog: its tables,
    views and, last, the function relations registered in
    ``catalog.functions``.
    """

    MAX_VIEW_DEPTH = 16

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        # `?` placeholders bound so far, by 0-based index; the prepared-
        # statement machinery binds values onto these exact nodes
        self.parameters: Dict[int, Parameter] = {}
        # WITH-clause state, scoped to one statement (a Binder instance
        # is created per statement, so delta parameter ids are
        # deterministic for a given SQL text)
        self._cte_defs: Dict[str, ast.CteDef] = {}
        self._cte_recursive: Dict[str, bool] = {}
        self._cte_expanding: set = set()
        # name (lowercase) -> (delta schema, param id) while binding the
        # recursive branch of that relation: a self-reference binds to a
        # FilterSetRelation carrying the previous iteration's delta
        self._active_delta: Dict[str, Tuple[Schema, str]] = {}
        self._view_expanding: set = set()
        self._delta_counter = 0
        # function relations bound so far (a view body that binds one is
        # not a function of the catalog alone, see _bind_from_item)
        self._function_refs = 0
        #: every catalog name (lowercase) resolved so far, view bodies
        #: included: the relations whose planner inputs a plan of this
        #: statement reads (see Catalog.inputs)
        self.names: set = set()

    @staticmethod
    def check_bindable(statement) -> None:
        """Reject statements that have no bound form.

        Transaction control (BEGIN/COMMIT/ROLLBACK/SAVEPOINT/RELEASE)
        is executed directly by the transaction manager and never
        reaches name resolution; asking for its query plan is a caller
        error with a precise message rather than a generic one.
        """
        if isinstance(statement, ast.TXN_STATEMENTS):
            raise BindError(
                "%s is a transaction-control statement; it has no query "
                "plan (execute it with db.sql/execute_script)"
                % type(statement).__name__
            )

    def parameter_list(self) -> List[Parameter]:
        """All Parameter nodes created while binding, in index order."""
        return [self.parameters[i] for i in sorted(self.parameters)]

    def _parameter(self, node: ast.AstParameter) -> Parameter:
        if node.index not in self.parameters:
            self.parameters[node.index] = Parameter(node.index)
        return self.parameters[node.index]

    # ------------------------------------------------------------ FROM list

    def bind(self, select: ast.SelectStmt, depth: int = 0) -> QueryBlock:
        """Bind a SELECT statement into a canonical QueryBlock."""
        if depth > self.MAX_VIEW_DEPTH:
            raise BindError("view nesting deeper than %d (cycle?)"
                            % self.MAX_VIEW_DEPTH)
        relations = [self._bind_from_item(item, depth) for item in select.from_items]
        block_relations: List[RelationRef] = []
        seen_aliases = set()
        for rel in relations:
            if rel.alias in seen_aliases:
                raise BindError("duplicate alias %r in FROM list" % rel.alias)
            seen_aliases.add(rel.alias)
            block_relations.append(rel)

        # Decorrelate top-level `expr IN (SELECT ...)` conjuncts into
        # joins with DISTINCT virtual relations (Figure 6's "full
        # decorrelation" — which the optimizer may then Filter-Join).
        # Operands are bound against the original FROM scope so the
        # added relation cannot shadow their column names.
        original_scope = _Scope(block_relations)
        where_ast, subquery_predicates = self._rewrite_in_subqueries(
            select.where, original_scope, block_relations, seen_aliases,
            depth,
        )

        scope = _Scope(block_relations)

        predicates: List[Expr] = list(subquery_predicates)
        if where_ast is not None:
            where = self._bind_scalar(where_ast, scope)
            predicates.extend(_flatten_conjuncts(where))

        group_by = [scope.qualify(col) for col in select.group_by]

        collector = _AggregateCollector()
        select_items, star_expansion = self._bind_select_list(
            select, scope, group_by, collector
        )
        having = None
        if select.having is not None:
            # HAVING without GROUP BY groups the whole input
            having = self._bind_scalar(
                select.having, _GroupedScope(scope, group_by, collector))

        aggregates = collector.specs
        block = QueryBlock(
            relations=block_relations,
            predicates=predicates,
            select_items=select_items,
            group_by=group_by,
            aggregates=aggregates,
            having=having,
            distinct=select.distinct,
            order_by=[],
            limit=select.limit,
        )
        # ORDER BY references the output schema
        output = block.output_schema()
        order_by: List[Tuple[ColumnRef, bool]] = []
        for col, ascending in select.order_by:
            name = col.display()
            if not output.has_column(name):
                # allow unqualified match against output names
                name = col.name
            if not output.has_column(name):
                raise BindError("ORDER BY column %r is not in the output"
                                % col.display())
            order_by.append((ColumnRef(name), ascending))
        block.order_by = order_by
        block.validate()
        return block

    def bind_sql(self, text: str, depth: int = 0) -> QueryBlock:
        """Parse then bind a SELECT statement."""
        return self.bind(parse_select(text), depth)

    def bind_union(self, stmt: ast.UnionStmt, depth: int = 0) -> UnionQuery:
        """Bind a UNION chain; branches bind independently, the trailing
        ORDER BY / LIMIT binds against the union's output schema."""
        parts = [self.bind(part, depth) for part in stmt.parts]
        union = UnionQuery(parts, list(stmt.all_flags), [], stmt.limit)
        output = union.output_schema()
        for col, ascending in stmt.order_by:
            name = col.display()
            if not output.has_column(name):
                name = col.name
            if not output.has_column(name):
                raise BindError(
                    "ORDER BY column %r is not in the UNION output"
                    % col.display()
                )
            union.order_by.append((ColumnRef(name), ascending))
        union.validate()
        return union

    def bind_with(self, stmt: ast.WithStmt, depth: int = 0):
        """Bind a ``WITH [RECURSIVE]`` statement.

        The CTE definitions are registered (statement-scoped, shadowing
        catalog relations of the same name) and the body is bound
        normally; references to a CTE name expand it in
        :meth:`_bind_from_item`. Returns a QueryBlock or UnionQuery.
        """
        registered = []
        for cte in stmt.ctes:
            key = cte.name.lower()
            if key in self._cte_defs:
                raise BindError("duplicate CTE name %r" % cte.name)
            self._cte_defs[key] = cte
            self._cte_recursive[key] = stmt.recursive
            registered.append(key)
        try:
            if isinstance(stmt.body, ast.UnionStmt):
                return self.bind_union(stmt.body, depth)
            return self.bind(stmt.body, depth)
        finally:
            for key in registered:
                self._cte_defs.pop(key, None)
                self._cte_recursive.pop(key, None)

    def _rewrite_in_subqueries(self, where: Optional[ast.AstExpr],
                               original_scope: "_Scope",
                               relations: List[RelationRef],
                               seen_aliases: set, depth: int):
        """Replace top-level IN-subquery conjuncts with join conditions.

        Returns (remaining WHERE ast, extra bound join predicates). Only
        top-level AND conjuncts are rewritable (under OR/NOT the join
        rewrite would change semantics). NOT IN needs an anti-join,
        which this engine does not implement.
        """
        if where is None:
            return None, []

        def conjuncts_of(node):
            if isinstance(node, ast.AstBoolean) and node.op == "AND":
                out = []
                for arg in node.args:
                    out.extend(conjuncts_of(arg))
                return out
            return [node]

        rewritten = []
        bound_predicates: List[Expr] = []
        for conjunct in conjuncts_of(where):
            if isinstance(conjunct, ast.AstInSubquery):
                if conjunct.negated:
                    raise BindError(
                        "NOT IN (SELECT ...) requires an anti-join, "
                        "which is not supported"
                    )
                operand = self._bind_scalar(conjunct.operand,
                                            original_scope)
                sub_block = self.bind(conjunct.select, depth + 1)
                output = sub_block.output_schema()
                if len(output) != 1:
                    raise BindError(
                        "IN subquery must produce exactly one column"
                    )
                sub_block.distinct = True
                alias = "_isub%d" % (len(seen_aliases) + 1)
                while alias in seen_aliases:
                    alias += "x"
                seen_aliases.add(alias)
                relations.append(VirtualRelation(
                    alias, "<in-subquery>", sub_block,
                ))
                bound_predicates.append(Comparison(
                    "=", operand,
                    ColumnRef("%s.%s" % (alias, output.names()[0])),
                ))
                continue
            if any(isinstance(node, ast.AstInSubquery)
                   for node in ast.walk(conjunct)):
                raise BindError(
                    "IN (SELECT ...) is only supported as a top-level "
                    "AND conjunct of WHERE"
                )
            rewritten.append(conjunct)
        if not rewritten:
            return None, bound_predicates
        if len(rewritten) == 1:
            return rewritten[0], bound_predicates
        return ast.AstBoolean("AND", tuple(rewritten)), bound_predicates

    def _bind_from_item(self, item: ast.FromItem, depth: int) -> RelationRef:
        if isinstance(item, ast.AstSubqueryRef):
            block = self.bind(item.select, depth + 1)
            return VirtualRelation(item.alias, "<subquery>", block)
        assert isinstance(item, ast.AstTableRef)
        alias = item.alias or item.name
        key = item.name.lower()
        if key in self._active_delta:
            # self-reference inside a recursive branch: bind to the
            # delta relation of the enclosing fixpoint
            schema, param_id = self._active_delta[key]
            return FilterSetRelation(alias, schema, param_id)
        if key in self._cte_defs:
            return self._bind_cte(key, alias, depth)
        if self.catalog.has_table(item.name):
            self.names.add(key)
            table = self.catalog.table(item.name)
            site = _table_site(self.catalog, item.name)
            return StoredRelation(alias, table, site=site)
        if self.catalog.has_view(item.name):
            self.names.add(key)
            view = self.catalog.view(item.name)
            if key in self._view_expanding:
                raise RecursiveViewError(
                    "view %r references itself; declare it with "
                    "CREATE RECURSIVE VIEW" % view.name,
                    view_name=view.name,
                )
            parsed = parse(view.sql_text)
            if view.recursive:
                return self._bind_recursive(
                    view.name, view.column_aliases, parsed, alias, depth)
            self._view_expanding.add(key)
            functions_before = self._function_refs
            statement_names, self.names = self.names, {key}
            try:
                if isinstance(parsed, ast.UnionStmt):
                    block = self.bind_union(parsed, depth + 1)
                elif isinstance(parsed, ast.SelectStmt):
                    block = self.bind(parsed, depth + 1)
                else:
                    raise BindError(
                        "view %s must be defined by a query" % view.name
                    )
            finally:
                self._view_expanding.discard(key)
                body_names = self.names
                self.names = statement_names | body_names
            # The bound body is a function of the catalog alone unless a
            # statement-scoped name (CTE, recursion delta) could have
            # shadowed a relation in it or it calls a registered
            # function; only then may results outlive the statement.
            catalog_scoped = not (
                self._cte_defs or self._active_delta
                or self._function_refs != functions_before
            )
            return VirtualRelation(
                alias, view.name, block,
                column_aliases=view.column_aliases,
                catalog_name=view.name if catalog_scoped else None,
                input_names=tuple(sorted(body_names)),
            )
        factory = self.catalog.functions.factory(key)
        if factory is not None:
            self.names.add(key)
            self._function_refs += 1
            return factory(alias)
        raise BindError("unknown relation %r" % item.name)

    # ----------------------------------------------- CTEs and recursion

    def _bind_cte(self, key: str, alias: str, depth: int) -> RelationRef:
        cte = self._cte_defs[key]
        if key in self._cte_expanding:
            raise RecursiveViewError(
                "CTE %r references itself through another relation; "
                "mutual recursion is not supported" % cte.name,
                view_name=cte.name,
            )
        if _query_self_refs(cte.query, key):
            if not self._cte_recursive[key]:
                raise RecursiveViewError(
                    "CTE %r references itself; use WITH RECURSIVE"
                    % cte.name,
                    view_name=cte.name,
                )
            return self._bind_recursive(
                cte.name, cte.column_aliases, cte.query, alias, depth)
        self._cte_expanding.add(key)
        try:
            if isinstance(cte.query, ast.UnionStmt):
                block = self.bind_union(cte.query, depth + 1)
            else:
                block = self.bind(cte.query, depth + 1)
        finally:
            self._cte_expanding.discard(key)
        return VirtualRelation(alias, cte.name, block,
                               column_aliases=cte.column_aliases)

    def _bind_recursive(self, name: str, column_aliases, stmt, alias: str,
                        depth: int) -> RelationRef:
        """Bind a recursive definition (CTE under WITH RECURSIVE, or a
        CREATE RECURSIVE VIEW body) into a :class:`RecursiveRelation`.

        The supported shape is *linear* recursion: one or more base
        branches UNION [ALL] exactly one recursive branch containing
        exactly one direct self-reference. The self-reference is bound
        as a delta FilterSetRelation, making the recursive branch the
        semi-naive template.
        """
        key = name.lower()
        if isinstance(stmt, ast.SelectStmt):
            direct, nested = _select_self_refs(stmt, key)
            if direct or nested:
                raise RecursiveViewError(
                    "recursive relation %r must be a UNION of base "
                    "branches and one recursive branch" % name,
                    view_name=name,
                )
            block = self.bind(stmt, depth + 1)
            return VirtualRelation(alias, name, block,
                                   column_aliases=column_aliases)
        if not isinstance(stmt, ast.UnionStmt):
            raise RecursiveViewError(
                "recursive relation %r must be defined by a query" % name,
                view_name=name,
            )
        base_parts: List[ast.SelectStmt] = []
        rec_parts: List[ast.SelectStmt] = []
        for part in stmt.parts:
            direct, nested = _select_self_refs(part, key)
            if nested:
                raise RecursiveViewError(
                    "recursive relation %r references itself inside a "
                    "subquery, which is not supported" % name,
                    view_name=name,
                )
            if direct == 0:
                base_parts.append(part)
            elif direct == 1:
                rec_parts.append(part)
            else:
                raise RecursiveViewError(
                    "non-linear recursion in %r: a branch references it "
                    "%d times (exactly one self-reference is supported)"
                    % (name, direct),
                    view_name=name,
                )
        if not rec_parts:
            # declared RECURSIVE but never self-references: plain view
            union = self.bind_union(stmt, depth + 1)
            return VirtualRelation(alias, name, union,
                                   column_aliases=column_aliases)
        if len(rec_parts) > 1:
            raise RecursiveViewError(
                "non-linear recursion in %r: %d branches reference it "
                "(exactly one recursive branch is supported)"
                % (name, len(rec_parts)),
                view_name=name,
            )
        if not base_parts:
            raise RecursiveViewError(
                "recursive relation %r has no non-recursive base branch"
                % name,
                view_name=name,
            )
        if stmt.order_by or stmt.limit is not None:
            raise RecursiveViewError(
                "ORDER BY / LIMIT are not supported on the recursive "
                "definition of %r; apply them in the consuming query"
                % name,
                view_name=name,
            )
        rec_part = rec_parts[0]
        if rec_part.group_by or _mentions_aggregate(rec_part):
            raise RecursiveViewError(
                "aggregates are not allowed in the recursive branch of %r"
                % name,
                view_name=name,
            )
        distinct = not all(stmt.all_flags)
        self._cte_expanding.add(key)
        try:
            base_blocks = [self.bind(part, depth + 1)
                           for part in base_parts]
            delta_schema = self._apply_column_aliases(
                self._union_schema(base_blocks, name), column_aliases, name)
            param_id = "delta%d" % self._delta_counter
            self._delta_counter += 1
            self._active_delta[key] = (delta_schema, param_id)
            try:
                recursive_block = self.bind(rec_part, depth + 1)
            finally:
                del self._active_delta[key]
        finally:
            self._cte_expanding.discard(key)
        rec_schema = recursive_block.output_schema()
        if len(rec_schema) != len(delta_schema):
            raise RecursiveViewError(
                "recursive branch of %r produces %d columns but its "
                "base produces %d" % (name, len(rec_schema),
                                      len(delta_schema)),
                view_name=name,
            )
        schema = self._apply_column_aliases(
            self._union_schema(base_blocks + [recursive_block], name),
            column_aliases, name)
        return RecursiveRelation(alias, name, base_blocks, recursive_block,
                                 param_id, schema, distinct=distinct)

    def _union_schema(self, blocks, name: str) -> Schema:
        """Union-compatible output schema of ``blocks`` (INT/FLOAT
        promotion), raising a typed error naming the recursive view."""
        if len(blocks) == 1:
            return blocks[0].output_schema()
        probe = UnionQuery(list(blocks), [True] * (len(blocks) - 1), [], None)
        try:
            return probe.output_schema()
        except BindError as exc:
            raise RecursiveViewError(
                "branches of recursive relation %r are not "
                "union-compatible: %s" % (name, exc),
                view_name=name,
            )

    @staticmethod
    def _apply_column_aliases(schema: Schema, aliases, name: str) -> Schema:
        if aliases is None:
            return schema
        if len(aliases) != len(schema):
            raise RecursiveViewError(
                "%s declares %d columns but its query produces %d"
                % (name, len(aliases), len(schema)),
                view_name=name,
            )
        return Schema(
            col.renamed(a) for col, a in zip(schema.columns, aliases)
        )

    # -------------------------------------------------------- SELECT list

    def _bind_select_list(self, select: ast.SelectStmt, scope: "_Scope",
                          group_by: List[ColumnRef],
                          collector: "_AggregateCollector"):
        grouped = bool(group_by) or _mentions_aggregate(select)
        item_scope = (_GroupedScope(scope, group_by, collector) if grouped
                      else scope)
        items: List[SelectItem] = []
        star = False
        for raw in select.select_items:
            if raw.star:
                star = True
                if grouped:
                    raise BindError("SELECT * cannot be combined with GROUP BY")
                for column in scope.combined.columns:
                    plain = column.name.split(".")[-1]
                    items.append(SelectItem(
                        ColumnRef(column.name),
                        alias=_dedup_name(plain, items),
                    ))
                continue
            expr = self._bind_scalar(raw.expr, item_scope, raw.alias)
            alias = raw.alias or _implicit_alias(expr)
            items.append(SelectItem(expr, alias=_dedup_name(alias, items)))
        return items, star

    # -------------------------------------------------- scalar expressions

    def bind_dml(self, statement) -> Tuple[Optional[Expr],
                                           List[Tuple[str, Expr]]]:
        """The WHERE and the SET expressions of an UPDATE/DELETE, bound
        over a scope of the target table alone and resolved by position
        against that scope's schema. A view or an unknown target raises
        what ``catalog.table`` raises."""
        table = self.catalog.table(statement.table)
        scope = _Scope([StoredRelation(statement.table, table)])

        def bind(node: ast.AstExpr) -> Expr:
            return self._bind_scalar(node, scope).resolve(scope.combined)

        where = None if statement.where is None else bind(statement.where)
        assignments = ([(column, bind(expr))
                        for column, expr in statement.assignments]
                       if isinstance(statement, ast.UpdateStmt) else [])
        return where, assignments

    def _bind_scalar(self, node: ast.AstExpr, scope: "_Scope",
                     alias: Optional[str] = None) -> Expr:
        """Convert an AST expression. Only the leaves depend on
        ``scope``: a :class:`_Scope` qualifies a column and rejects an
        aggregate, a :class:`_GroupedScope` maps a column to its GROUP BY
        output and collects an aggregate (``alias``, the select item's,
        is the preferred name of an aggregate at the top)."""
        if isinstance(node, ast.AstColumn):
            return scope.column(node)
        if isinstance(node, ast.AstLiteral):
            return Literal(node.value)
        if isinstance(node, ast.AstComparison):
            return Comparison(
                node.op,
                self._bind_scalar(node.left, scope),
                self._bind_scalar(node.right, scope),
            )
        if isinstance(node, ast.AstBoolean):
            return BooleanExpr(node.op, [
                self._bind_scalar(arg, scope) for arg in node.args
            ])
        if isinstance(node, ast.AstArithmetic):
            return Arithmetic(
                node.op,
                self._bind_scalar(node.left, scope),
                self._bind_scalar(node.right, scope),
            )
        if isinstance(node, ast.AstInList):
            operand = self._bind_scalar(node.operand, scope)
            return self._bind_in_list(operand, node)
        if isinstance(node, ast.AstParameter):
            return self._parameter(node)
        if isinstance(node, ast.AstFuncCall):
            return scope.aggregate(self, node, alias)
        if isinstance(node, ast.AstInSubquery):
            raise BindError("IN (SELECT ...) is only supported as a "
                            "top-level AND conjunct of a query's WHERE")
        raise BindError("unsupported expression %r" % (node,))

    def _bind_in_list(self, operand: Expr, node: ast.AstInList) -> Expr:
        """Bind ``expr [NOT] IN (v, ...)``. A list of plain literals
        becomes an InList; a list containing `?` placeholders is
        rewritten into (NOT) (expr = v1 OR expr = v2 ...), which has the
        same three-valued semantics and evaluates parameters properly."""
        if not any(isinstance(v, ast.AstParameter) for v in node.values):
            return InList(operand, node.values, node.negated)
        disjuncts: List[Expr] = []
        for value in node.values:
            right = (self._parameter(value)
                     if isinstance(value, ast.AstParameter)
                     else Literal(value))
            disjuncts.append(Comparison("=", operand, right))
        membership = (disjuncts[0] if len(disjuncts) == 1
                      else BooleanExpr("OR", disjuncts))
        if node.negated:
            return BooleanExpr("NOT", [membership])
        return membership

# --------------------------------------------------------------- helpers

class _Scope:
    """Column-name resolution over a block's FROM list. A qualifier
    names an alias case-insensitively, as a table name does; column
    names are case-sensitive."""

    def __init__(self, relations: List[RelationRef]):
        self.relations = relations
        self.combined = relations[0].output_schema if relations else None
        for rel in relations[1:]:
            self.combined = self.combined.concat(rel.output_schema)
        # unqualified name -> list of qualified candidates
        self.unqualified: Dict[str, List[str]] = {}
        # lowercase alias -> the aliases it names
        self.aliases: Dict[str, List[str]] = {}
        for rel in relations:
            self.aliases.setdefault(rel.alias.lower(), []).append(rel.alias)
            for col in rel.base_schema:
                qualified = "%s.%s" % (rel.alias, col.name)
                self.unqualified.setdefault(col.name, []).append(qualified)

    def qualify(self, node: ast.AstColumn) -> ColumnRef:
        if node.qualifier is not None:
            aliases = self.aliases.get(node.qualifier.lower(), [])
            if len(aliases) > 1:
                raise BindError(
                    "ambiguous column %s (aliases %s)"
                    % (node.display(), " and ".join(aliases))
                )
            qualified = "%s.%s" % (aliases[0] if aliases
                                   else node.qualifier, node.name)
            if not self.combined.has_column(qualified):
                raise BindError("unknown column %s" % node.display())
            return ColumnRef(qualified)
        candidates = self.unqualified.get(node.name, [])
        if not candidates:
            raise BindError("unknown column %r" % node.name)
        if len(candidates) > 1:
            raise BindError(
                "ambiguous column %r (could be %s)"
                % (node.name, " or ".join(candidates))
            )
        return ColumnRef(candidates[0])

    column = qualify

    def aggregate(self, binder: Binder, node: ast.AstFuncCall,
                  alias: Optional[str]) -> Expr:
        raise BindError(
            "aggregate %s() is not allowed here" % node.name.upper()
        )


class _GroupedScope:
    """The scope of a grouped SELECT list or HAVING: a column must be
    a GROUP BY column and becomes its group-output name; an aggregate
    call, its argument bound over the FROM list, becomes a reference to
    the aggregate's output column."""

    def __init__(self, scope: _Scope, group_by: List[ColumnRef],
                 collector: "_AggregateCollector"):
        self.scope = scope
        self.group_by = group_by
        self.collector = collector

    def column(self, node: ast.AstColumn) -> ColumnRef:
        qualified = self.scope.qualify(node)
        for ref in self.group_by:
            if ref.name == qualified.name:
                return ColumnRef(qualified.name.split(".")[-1])
        raise BindError(
            "column %s must appear in GROUP BY or inside an aggregate"
            % qualified.name
        )

    def aggregate(self, binder: Binder, node: ast.AstFuncCall,
                  alias: Optional[str]) -> Expr:
        if node.name not in AGGREGATE_FUNCTIONS:
            raise BindError("unknown function %r" % node.name)
        argument = None
        if not node.star:
            argument = binder._bind_scalar(node.argument, self.scope)
        return ColumnRef(self.collector.add(
            node.name, argument, preferred=alias, distinct=node.distinct))


class _AggregateCollector:
    """Deduplicating collector of AggregateSpec objects."""

    def __init__(self):
        self.specs: List[AggregateSpec] = []
        self._by_key: Dict[str, str] = {}

    def add(self, function: str, argument: Optional[Expr],
            preferred: Optional[str] = None, distinct: bool = False) -> str:
        key = "%s(%s%s)" % (
            function, "DISTINCT " if distinct else "",
            argument.display() if argument else "*",
        )
        if key in self._by_key:
            return self._by_key[key]
        alias = preferred or self._default_alias(function, argument)
        existing = {s.alias for s in self.specs}
        base, n = alias, 2
        while alias in existing:
            alias = "%s_%d" % (base, n)
            n += 1
        self.specs.append(AggregateSpec(function, argument, alias,
                                        distinct=distinct))
        self._by_key[key] = alias
        return alias

    @staticmethod
    def _default_alias(function: str, argument: Optional[Expr]) -> str:
        if argument is None:
            return "count_all"
        if isinstance(argument, ColumnRef):
            return "%s_%s" % (function, argument.name.split(".")[-1])
        return "%s_expr" % function


def _select_self_refs(select: ast.SelectStmt, key: str) -> Tuple[int, int]:
    """Count references to relation ``key`` in one SELECT: ``(direct,
    nested)`` where direct refs sit in this statement's FROM list and
    nested refs hide inside subqueries (FROM or IN)."""
    direct = 0
    nested = 0
    for item in select.from_items:
        if isinstance(item, ast.AstTableRef):
            if item.name.lower() == key:
                direct += 1
        else:
            d, n = _select_self_refs(item.select, key)
            nested += d + n
    nested += _expr_self_refs(select.where, key)
    nested += _expr_self_refs(select.having, key)
    return direct, nested


def _expr_self_refs(node, key: str) -> int:
    if node is None:
        return 0
    return sum(sum(_select_self_refs(sub.select, key))
               for sub in ast.walk(node)
               if isinstance(sub, ast.AstInSubquery))


def _query_self_refs(query, key: str) -> int:
    """Total self-references (direct + nested) in a SELECT or UNION."""
    parts = query.parts if isinstance(query, ast.UnionStmt) else [query]
    total = 0
    for part in parts:
        direct, nested = _select_self_refs(part, key)
        total += direct + nested
    return total


def _flatten_conjuncts(expr: Expr) -> List[Expr]:
    if isinstance(expr, BooleanExpr) and expr.op == "AND":
        out: List[Expr] = []
        for arg in expr.args:
            out.extend(_flatten_conjuncts(arg))
        return out
    return [expr]


def _mentions_aggregate(select: ast.SelectStmt) -> bool:
    roots = [item.expr for item in select.select_items
             if item.expr is not None]
    if select.having is not None:
        roots.append(select.having)
    return any(isinstance(node, ast.AstFuncCall)
               for root in roots for node in ast.walk(root))


def _implicit_alias(expr: Expr) -> Optional[str]:
    if isinstance(expr, ColumnRef):
        return expr.name.split(".")[-1]
    return None


def _dedup_name(name: Optional[str], items: List[SelectItem]) -> Optional[str]:
    if name is None:
        return None
    used = {item.output_name for item in items}
    if name not in used:
        return name
    n = 2
    while "%s_%d" % (name, n) in used:
        n += 1
    return "%s_%d" % (name, n)


def _table_site(catalog: Catalog, name: str) -> Optional[str]:
    """Site of a table, if the catalog tracks placement (distributed)."""
    site_for = getattr(catalog, "site_for_table", None)
    if site_for is None:
        return None
    return site_for(name)
