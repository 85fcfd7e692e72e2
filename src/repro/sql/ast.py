"""Parse-tree (AST) node types for the SQL subset.

The parser produces these; the binder turns them into bound
:class:`~repro.algebra.block.QueryBlock` objects. Scalar expressions in
the AST use a parallel, *unbound* node set (``AstExpr`` and friends)
because at parse time we cannot distinguish aggregates from scalars or
resolve qualified names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union


# ------------------------------------------------------------- expressions

class AstExpr:
    """Base class for unbound scalar/aggregate expressions."""


@dataclass(frozen=True)
class AstColumn(AstExpr):
    """A possibly-qualified column name."""

    qualifier: Optional[str]
    name: str

    def display(self) -> str:
        if self.qualifier:
            return "%s.%s" % (self.qualifier, self.name)
        return self.name


@dataclass(frozen=True)
class AstLiteral(AstExpr):
    value: object


@dataclass(frozen=True)
class AstParameter(AstExpr):
    """A ``?`` placeholder; ``index`` is its 0-based position in textual
    order, assigned by the parser. Values are supplied at execute time
    through the prepared-statement API."""

    index: int


@dataclass(frozen=True)
class AstComparison(AstExpr):
    op: str
    left: AstExpr
    right: AstExpr


@dataclass(frozen=True)
class AstBoolean(AstExpr):
    op: str  # AND | OR | NOT
    args: Tuple[AstExpr, ...]


@dataclass(frozen=True)
class AstArithmetic(AstExpr):
    op: str
    left: AstExpr
    right: AstExpr


@dataclass(frozen=True)
class AstInList(AstExpr):
    """``expr [NOT] IN (literal, ...)``."""

    operand: AstExpr
    values: Tuple[object, ...]
    negated: bool = False


@dataclass(frozen=True)
class AstInSubquery(AstExpr):
    """``expr IN (SELECT ...)`` — rewritten by the binder into a join
    with a DISTINCT virtual relation (a semi-join the optimizer may then
    evaluate as a Filter Join)."""

    operand: AstExpr
    select: "SelectStmt"
    negated: bool = False


@dataclass(frozen=True)
class AstFuncCall(AstExpr):
    """A function call; ``star`` marks COUNT(*), ``distinct`` marks
    ``fn(DISTINCT arg)``."""

    name: str
    argument: Optional[AstExpr]
    star: bool = False
    distinct: bool = False


def walk(node: AstExpr) -> Iterator[AstExpr]:
    """``node`` and every expression under it: the arguments of AND/OR/
    NOT, both sides of a comparison or arithmetic, the operand of an IN
    list or IN subquery, and a function call's argument. A subquery's
    own SELECT is a statement, not a child; callers walk it themselves.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, AstBoolean):
            stack.extend(node.args)
        elif isinstance(node, (AstComparison, AstArithmetic)):
            stack += (node.left, node.right)
        elif isinstance(node, (AstInList, AstInSubquery)):
            stack.append(node.operand)
        elif isinstance(node, AstFuncCall) and node.argument is not None:
            stack.append(node.argument)


# -------------------------------------------------------------- statements

@dataclass
class AstSelectItem:
    """One select-list entry; expr None + star True means ``*``."""

    expr: Optional[AstExpr]
    alias: Optional[str] = None
    star: bool = False


@dataclass
class AstTableRef:
    """FROM-list entry naming a table, view, or function relation."""

    name: str
    alias: Optional[str] = None


@dataclass
class AstSubqueryRef:
    """FROM-list entry wrapping a parenthesized subquery."""

    select: "SelectStmt"
    alias: str


FromItem = Union[AstTableRef, AstSubqueryRef]


@dataclass
class SelectStmt:
    """A full SELECT statement."""

    select_items: List[AstSelectItem]
    from_items: List[FromItem]
    where: Optional[AstExpr] = None
    group_by: List[AstColumn] = field(default_factory=list)
    having: Optional[AstExpr] = None
    order_by: List[Tuple[AstColumn, bool]] = field(default_factory=list)
    distinct: bool = False
    limit: Optional[int] = None


@dataclass
class UnionStmt:
    """A UNION [ALL] chain with an optional trailing ORDER BY / LIMIT.

    ``all_flags[i]`` is True when the link between ``parts[i]`` and
    ``parts[i+1]`` is UNION ALL (duplicates kept).
    """

    parts: List[SelectStmt]
    all_flags: List[bool]
    order_by: List[Tuple[AstColumn, bool]] = field(default_factory=list)
    limit: Optional[int] = None


@dataclass
class ColumnDef:
    name: str
    type_name: str


@dataclass
class CreateTableStmt:
    name: str
    columns: List[ColumnDef]


@dataclass
class CreateTableAsStmt:
    """CREATE TABLE name AS SELECT ... — materialize a query's result."""

    name: str
    query: "Statement"  # SelectStmt or UnionStmt


@dataclass
class CteDef:
    """One ``name [(cols)] AS ( query )`` entry of a WITH clause."""

    name: str
    column_aliases: Optional[List[str]]
    query: "Statement"  # SelectStmt or UnionStmt


@dataclass
class WithStmt:
    """``WITH [RECURSIVE] cte [, cte ...] body`` — the body is a SELECT
    or UNION that may reference the named CTEs in its FROM lists."""

    recursive: bool
    ctes: List[CteDef]
    body: "Statement"  # SelectStmt or UnionStmt


@dataclass
class CreateViewStmt:
    name: str
    column_aliases: Optional[List[str]]
    select: SelectStmt
    select_text: str  # original SQL text of the view body, for the catalog
    recursive: bool = False


@dataclass
class CreateIndexStmt:
    table: str
    column: str
    kind: str  # "hash" | "sorted"


@dataclass
class InsertStmt:
    table: str
    rows: List[List[object]]


@dataclass
class UpdateStmt:
    """``UPDATE table SET col = expr [, ...] [WHERE expr]``.

    Assignments and the predicate are plain scalar expressions over
    the target table's columns (no subqueries, aggregates or
    parameters); the query binder binds them over a scope of that one
    table (``Database._dml_statement``).
    """

    table: str
    assignments: List[Tuple[str, AstExpr]]
    where: Optional[AstExpr]


@dataclass
class DeleteStmt:
    """``DELETE FROM table [WHERE expr]``."""

    table: str
    where: Optional[AstExpr]


@dataclass
class DropStmt:
    kind: str  # "table" | "view"
    name: str


@dataclass
class ExplainStmt:
    select: SelectStmt


# ------------------------------------------------------ transaction control

@dataclass
class BeginStmt:
    """``BEGIN [TRANSACTION]`` — open an explicit transaction."""


@dataclass
class CommitStmt:
    """``COMMIT [TRANSACTION]`` — make the open transaction durable.
    On an aborted transaction this performs a rollback instead
    (PostgreSQL semantics); the result's statement kind says which."""


@dataclass
class RollbackStmt:
    """``ROLLBACK [TRANSACTION] [TO [SAVEPOINT] name]`` — undo the open
    transaction, or rewind to a savepoint when ``savepoint`` is set."""

    savepoint: Optional[str] = None


@dataclass
class SavepointStmt:
    """``SAVEPOINT name`` — mark a rollback point inside the open
    transaction."""

    name: str


@dataclass
class ReleaseStmt:
    """``RELEASE [SAVEPOINT] name`` — forget a savepoint (its changes
    stay part of the transaction)."""

    name: str


#: transaction-control statements never reach the binder or planner
TXN_STATEMENTS = (BeginStmt, CommitStmt, RollbackStmt, SavepointStmt,
                  ReleaseStmt)


Statement = Union[
    SelectStmt, UnionStmt, WithStmt, CreateTableStmt, CreateTableAsStmt,
    CreateViewStmt, CreateIndexStmt, InsertStmt, UpdateStmt, DeleteStmt,
    DropStmt, ExplainStmt,
    BeginStmt, CommitStmt, RollbackStmt, SavepointStmt, ReleaseStmt,
]
