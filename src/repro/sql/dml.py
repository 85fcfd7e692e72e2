"""Compile UPDATE/DELETE scalar expressions against one table schema.

UPDATE and DELETE name one table, so they need no plan search — but
they do get an access path: the transaction manager finds their target
rows through an index of the table whenever a conjunct of the WHERE is
sargable (the planner's rule, :func:`repro.expr.nodes.sargable`), and
evaluates the whole WHERE on the candidates
(:meth:`repro.txn.manager.TransactionManager._match`). All that takes
is the expression subset — columns of the target table, literals,
comparisons, boolean logic, arithmetic, and IN lists — compiled here to
the executor's :mod:`repro.expr.nodes` tree and resolved against the
table schema. Subqueries, function calls, and prepared parameters are
rejected with typed errors.
"""

from __future__ import annotations

from ..errors import BindError, ParameterError
from ..expr.nodes import (
    Arithmetic,
    BooleanExpr,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
)
from ..storage.schema import Schema
from . import ast


def compile_expr(node, schema: Schema, table_name: str) -> Expr:
    """AST scalar expression -> resolved executor expression."""
    return _convert(node, schema, table_name).resolve(schema)


def _convert(node, schema: Schema, table_name: str) -> Expr:
    if isinstance(node, ast.AstLiteral):
        return Literal(node.value)
    if isinstance(node, ast.AstColumn):
        if node.qualifier and \
                node.qualifier.lower() != table_name.lower():
            raise BindError(
                "unknown qualifier %r in UPDATE/DELETE on %r"
                % (node.qualifier, table_name)
            )
        if not schema.has_column(node.name):
            raise BindError(
                "no column %r in table %r" % (node.name, table_name)
            )
        return ColumnRef(node.name)
    if isinstance(node, ast.AstComparison):
        return Comparison(
            node.op,
            _convert(node.left, schema, table_name),
            _convert(node.right, schema, table_name),
        )
    if isinstance(node, ast.AstBoolean):
        return BooleanExpr(
            node.op,
            [_convert(arg, schema, table_name) for arg in node.args],
        )
    if isinstance(node, ast.AstArithmetic):
        return Arithmetic(
            node.op,
            _convert(node.left, schema, table_name),
            _convert(node.right, schema, table_name),
        )
    if isinstance(node, ast.AstInList):
        return InList(
            _convert(node.operand, schema, table_name),
            node.values,
            negated=node.negated,
        )
    if isinstance(node, ast.AstParameter):
        raise ParameterError(
            "parameters (?) are not supported in UPDATE/DELETE"
        )
    raise BindError(
        "%s is not supported in UPDATE/DELETE expressions"
        % type(node).__name__
    )
