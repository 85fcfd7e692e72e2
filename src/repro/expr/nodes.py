"""Scalar expression AST.

Expressions are built over *column names*; :meth:`Expr.resolve` binds each
column reference to a position in a concrete :class:`Schema`, returning a
new tree whose :meth:`Expr.eval` runs on positional rows. The same AST is
used by the SQL binder, the logical algebra, the optimizer's selectivity
estimator, and the executor.

Nodes are immutable; transformation helpers (``rename_columns``,
``substitute``) return new trees.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..errors import BindError, ExecutionError
from ..storage.schema import DataType, Schema

COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/")


class Expr:
    """Base class for scalar expressions."""

    def columns(self) -> Set[str]:
        """Names of all columns referenced anywhere in this tree."""
        raise NotImplementedError

    def resolve(self, schema: Schema) -> "Expr":
        """Bind column references to positions in ``schema``."""
        raise NotImplementedError

    def eval(self, row: Sequence):
        """Evaluate on a positional row (requires a resolved tree)."""
        raise NotImplementedError

    def dtype(self, schema: Schema) -> DataType:
        """Static result type against ``schema``."""
        raise NotImplementedError

    def rename_columns(self, mapping: Dict[str, str]) -> "Expr":
        """New tree with column names replaced per ``mapping``."""
        raise NotImplementedError

    def display(self) -> str:
        """SQL-ish rendering used by EXPLAIN and the rewriter."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.display()

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self.display() == other.display()

    def __hash__(self) -> int:
        return hash(self.display())


class ColumnRef(Expr):
    """A reference to a named column, possibly qualified ("E.did")."""

    def __init__(self, name: str, position: Optional[int] = None,
                 _dtype: Optional[DataType] = None):
        self.name = name
        self.position = position
        self._dtype = _dtype

    def columns(self) -> Set[str]:
        return {self.name}

    def resolve(self, schema: Schema) -> "ColumnRef":
        position = schema.index_of(self.name)
        return ColumnRef(self.name, position, schema.columns[position].dtype)

    def eval(self, row: Sequence):
        if self.position is None:
            raise ExecutionError("unresolved column reference %r" % self.name)
        return row[self.position]

    def dtype(self, schema: Schema) -> DataType:
        return schema.column(self.name).dtype

    def rename_columns(self, mapping: Dict[str, str]) -> "ColumnRef":
        return ColumnRef(mapping.get(self.name, self.name))

    def display(self) -> str:
        return self.name


class Literal(Expr):
    """A constant value."""

    def __init__(self, value):
        self.value = value

    def columns(self) -> Set[str]:
        return set()

    def resolve(self, schema: Schema) -> "Literal":
        return self

    def eval(self, row: Sequence):
        return self.value

    def dtype(self, schema: Schema) -> DataType:
        if isinstance(self.value, bool):
            return DataType.BOOL
        if isinstance(self.value, int):
            return DataType.INT
        if isinstance(self.value, float):
            return DataType.FLOAT
        if isinstance(self.value, str):
            return DataType.STR
        raise BindError("unsupported literal %r" % (self.value,))

    def rename_columns(self, mapping: Dict[str, str]) -> "Literal":
        return self

    def display(self) -> str:
        if isinstance(self.value, str):
            return "'%s'" % self.value.replace("'", "''")
        return str(self.value)


_UNBOUND = object()  # sentinel: a Parameter with no value bound yet

PARAMETER_TYPES = (bool, int, float, str, type(None))


class Parameter(Expr):
    """A ``?`` placeholder bound to a concrete value at execute time.

    The value lives in a shared one-slot cell so that every copy produced
    by :meth:`resolve` / :meth:`rename_columns` — including the resolved
    trees inside an already-lowered (or plan-cached) operator tree — sees
    the value bound on the original node. The optimizer treats a
    parameter like an unknown constant: selectivity estimation falls back
    to its default comparison selectivities, and index-scan constant
    folding ignores it, so one plan serves every binding.
    """

    def __init__(self, index: int, _cell: Optional[list] = None):
        self.index = index
        self._cell = _cell if _cell is not None else [_UNBOUND]

    # ------------------------------------------------------------- binding

    @property
    def is_bound(self) -> bool:
        return self._cell[0] is not _UNBOUND

    @property
    def value(self):
        if not self.is_bound:
            raise ExecutionError(
                "parameter ?%d was not bound before use" % (self.index + 1)
            )
        return self._cell[0]

    def bind(self, value) -> None:
        if not isinstance(value, PARAMETER_TYPES):
            from ..errors import ParameterError
            raise ParameterError(
                "parameter ?%d: unsupported value type %s"
                % (self.index + 1, type(value).__name__)
            )
        self._cell[0] = value

    def unbind(self) -> None:
        self._cell[0] = _UNBOUND

    # ---------------------------------------------------------- Expr duties

    def columns(self) -> Set[str]:
        return set()

    def resolve(self, schema: Schema) -> "Parameter":
        return self  # nothing to resolve; keep the shared cell

    def eval(self, row: Sequence):
        return self.value

    def dtype(self, schema: Schema) -> DataType:
        if self.is_bound and self._cell[0] is not None:
            return Literal(self._cell[0]).dtype(schema)
        # unbound at planning time (e.g. `SELECT ? ...`) or NULL: the
        # static type is unknowable; assume numeric
        return DataType.FLOAT

    def rename_columns(self, mapping: Dict[str, str]) -> "Parameter":
        return self

    def display(self) -> str:
        return "?%d" % (self.index + 1)


def _compare(op: str, left, right) -> Optional[bool]:
    if left is None or right is None:
        return None  # SQL three-valued logic: NULL comparisons are unknown
    try:
        if op == "=":
            return left == right
        if op in ("!=", "<>"):
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        raise ExecutionError(
            "cannot compare %r with %r" % (left, right)
        )
    raise ExecutionError("unknown comparison operator %r" % op)


class Comparison(Expr):
    """A binary comparison between two scalar expressions."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in COMPARISON_OPS:
            raise BindError("unknown comparison operator %r" % op)
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> Set[str]:
        return self.left.columns() | self.right.columns()

    def resolve(self, schema: Schema) -> "Comparison":
        return Comparison(self.op, self.left.resolve(schema),
                          self.right.resolve(schema))

    def eval(self, row: Sequence):
        return _compare(self.op, self.left.eval(row), self.right.eval(row))

    def dtype(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def rename_columns(self, mapping: Dict[str, str]) -> "Comparison":
        return Comparison(self.op, self.left.rename_columns(mapping),
                          self.right.rename_columns(mapping))

    def flipped(self) -> "Comparison":
        """The same predicate with sides swapped (e.g. a < b -> b > a)."""
        flip = {"=": "=", "!=": "!=", "<>": "<>",
                "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return Comparison(flip[self.op], self.right, self.left)

    def display(self) -> str:
        return "%s %s %s" % (self.left.display(), self.op, self.right.display())


class BooleanExpr(Expr):
    """AND / OR / NOT over boolean sub-expressions."""

    def __init__(self, op: str, args: Sequence[Expr]):
        op = op.upper()
        if op not in ("AND", "OR", "NOT"):
            raise BindError("unknown boolean operator %r" % op)
        if op == "NOT" and len(args) != 1:
            raise BindError("NOT takes exactly one argument")
        if op in ("AND", "OR") and len(args) < 2:
            raise BindError("%s takes at least two arguments" % op)
        self.op = op
        self.args = list(args)

    def columns(self) -> Set[str]:
        out: Set[str] = set()
        for arg in self.args:
            out |= arg.columns()
        return out

    def resolve(self, schema: Schema) -> "BooleanExpr":
        return BooleanExpr(self.op, [a.resolve(schema) for a in self.args])

    def eval(self, row: Sequence):
        if self.op == "NOT":
            value = self.args[0].eval(row)
            return None if value is None else not value
        if self.op == "AND":
            saw_null = False
            for arg in self.args:
                value = arg.eval(row)
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True
        # OR
        saw_null = False
        for arg in self.args:
            value = arg.eval(row)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False

    def dtype(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def rename_columns(self, mapping: Dict[str, str]) -> "BooleanExpr":
        return BooleanExpr(self.op, [a.rename_columns(mapping) for a in self.args])

    def display(self) -> str:
        if self.op == "NOT":
            return "NOT (%s)" % self.args[0].display()
        joiner = " %s " % self.op
        return "(%s)" % joiner.join(a.display() for a in self.args)


class Arithmetic(Expr):
    """Binary arithmetic over numeric expressions."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in ARITHMETIC_OPS:
            raise BindError("unknown arithmetic operator %r" % op)
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> Set[str]:
        return self.left.columns() | self.right.columns()

    def resolve(self, schema: Schema) -> "Arithmetic":
        return Arithmetic(self.op, self.left.resolve(schema),
                          self.right.resolve(schema))

    def eval(self, row: Sequence):
        left = self.left.eval(row)
        right = self.right.eval(row)
        if left is None or right is None:
            return None
        try:
            if self.op == "+":
                return left + right
            if self.op == "-":
                return left - right
            if self.op == "*":
                return left * right
            if right == 0:
                raise ExecutionError("division by zero")
            return left / right
        except TypeError:
            raise ExecutionError(
                "cannot apply %r to %r and %r" % (self.op, left, right)
            )

    def dtype(self, schema: Schema) -> DataType:
        left = self.left.dtype(schema)
        right = self.right.dtype(schema)
        if self.op == "/":
            return DataType.FLOAT
        if DataType.FLOAT in (left, right):
            return DataType.FLOAT
        return DataType.INT

    def rename_columns(self, mapping: Dict[str, str]) -> "Arithmetic":
        return Arithmetic(self.op, self.left.rename_columns(mapping),
                          self.right.rename_columns(mapping))

    def display(self) -> str:
        return "(%s %s %s)" % (self.left.display(), self.op,
                               self.right.display())


class InList(Expr):
    """SQL ``expr [NOT] IN (literal, ...)`` with three-valued logic."""

    def __init__(self, operand: Expr, values: Sequence, negated: bool = False):
        if not values:
            raise BindError("IN list cannot be empty")
        self.operand = operand
        self.values = tuple(values)
        self.negated = negated

    def columns(self) -> Set[str]:
        return self.operand.columns()

    def resolve(self, schema: Schema) -> "InList":
        return InList(self.operand.resolve(schema), self.values,
                      self.negated)

    def eval(self, row: Sequence):
        value = self.operand.eval(row)
        if value is None:
            return None
        found = value in self.values
        if not found and any(v is None for v in self.values):
            return None  # NULL in the list makes a miss unknown
        return (not found) if self.negated else found

    def dtype(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def rename_columns(self, mapping: Dict[str, str]) -> "InList":
        return InList(self.operand.rename_columns(mapping), self.values,
                      self.negated)

    def display(self) -> str:
        rendered = ", ".join(Literal(v).display() for v in self.values)
        keyword = "NOT IN" if self.negated else "IN"
        return "%s %s (%s)" % (self.operand.display(), keyword, rendered)


class RuntimeMembership(Expr):
    """Membership of a column tuple in a run-time-bound filter set.

    This is how a *lossy* filter set (a Bloom filter) restricts an inner
    relation: the predicate ``RuntimeMembership(param_id, cols)`` is
    planted in the inner's block and pushed to the relation owning the
    columns. The executor binds ``filter_set`` to the execution's
    :class:`~repro.executor.runtime.FilterSet` before evaluation; the
    optimizer estimates its selectivity from ``assumed_selectivity``,
    set by the filter-join costing.
    """

    def __init__(self, param_id: str, args: Sequence["ColumnRef"],
                 assumed_selectivity: float = 1.0):
        if not args:
            raise BindError("RuntimeMembership needs at least one column")
        self.param_id = param_id
        self.args = list(args)
        self.assumed_selectivity = assumed_selectivity
        self.filter_set = None  # bound by the executor

    def columns(self) -> Set[str]:
        out: Set[str] = set()
        for arg in self.args:
            out |= arg.columns()
        return out

    def resolve(self, schema: Schema) -> "RuntimeMembership":
        resolved = RuntimeMembership(
            self.param_id,
            [arg.resolve(schema) for arg in self.args],
            self.assumed_selectivity,
        )
        resolved.filter_set = self.filter_set
        return resolved

    def eval(self, row: Sequence):
        if self.filter_set is None:
            raise ExecutionError(
                "filter set %r was not bound before execution" % self.param_id
            )
        key = tuple(arg.eval(row) for arg in self.args)
        if len(key) == 1:
            key = key[0]
        return key in self.filter_set

    def dtype(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def rename_columns(self, mapping: Dict[str, str]) -> "RuntimeMembership":
        renamed = RuntimeMembership(
            self.param_id,
            [arg.rename_columns(mapping) for arg in self.args],
            self.assumed_selectivity,
        )
        renamed.filter_set = self.filter_set
        return renamed

    def display(self) -> str:
        cols = ", ".join(arg.display() for arg in self.args)
        return "(%s) IN FILTER[%s]" % (cols, self.param_id)


# --------------------------------------------------------------- conjuncts

def conjuncts(predicate: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, BooleanExpr) and predicate.op == "AND":
        out: List[Expr] = []
        for arg in predicate.args:
            out.extend(conjuncts(arg))
        return out
    return [predicate]


def conjoin(predicates: Sequence[Expr]) -> Optional[Expr]:
    """AND together a list of predicates (None for an empty list)."""
    predicates = [p for p in predicates if p is not None]
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return BooleanExpr("AND", predicates)


def sargable(predicate: Expr, table):
    """The one rule for "this conjunct can be answered by an index of
    ``table``": a comparison of one of its columns (bare or qualified
    name) with a literal, on either side, through an operator the
    column's index answers — ``=`` on hash and sorted, ranges on sorted
    (:attr:`repro.storage.index.Index.ops`). Returns ``(comparison
    normalised to column <op> literal, that index)``, else None. The
    planner's index access plans and UPDATE/DELETE target discovery
    (:meth:`repro.txn.manager.TransactionManager._match`, over the
    expressions the query binder bound for the target table) both ask
    here."""
    if not isinstance(predicate, Comparison):
        return None
    if isinstance(predicate.left, Literal) and \
            isinstance(predicate.right, ColumnRef):
        predicate = predicate.flipped()
    if not (isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, Literal)):
        return None
    index = table.index_on(predicate.left.name.rpartition(".")[2])
    if index is None or predicate.op not in index.ops:
        return None
    return predicate, index


def is_equijoin(predicate: Expr) -> bool:
    """True for predicates of the form column = column."""
    return (
        isinstance(predicate, Comparison)
        and predicate.op == "="
        and isinstance(predicate.left, ColumnRef)
        and isinstance(predicate.right, ColumnRef)
    )
