"""Aggregate functions and their incremental accumulators.

The executor's hash-aggregate operator drives :class:`Accumulator`
instances; the algebra layer describes aggregates with
:class:`AggregateSpec` (function name + argument expression + output
alias). COUNT(*) is spelled with a ``None`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import BindError
from ..storage.schema import DataType, Schema
from .nodes import Expr

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a GROUP BY block: ``function(argument) AS alias``.

    ``distinct`` marks ``function(DISTINCT argument)``; duplicates of the
    argument value are folded only once per group.
    """

    function: str
    argument: Optional[Expr]  # None means COUNT(*)
    alias: str
    distinct: bool = False

    def __post_init__(self):
        if self.function not in AGGREGATE_FUNCTIONS:
            raise BindError("unknown aggregate function %r" % self.function)
        if self.argument is None and self.function != "count":
            raise BindError("%s requires an argument" % self.function.upper())
        if self.distinct and self.argument is None:
            raise BindError("COUNT(DISTINCT *) is not valid")

    def output_dtype(self, schema: Schema) -> DataType:
        if self.function == "count":
            return DataType.INT
        arg_type = self.argument.dtype(schema)
        if self.function == "avg":
            return DataType.FLOAT
        if self.function == "sum":
            return DataType.FLOAT if arg_type == DataType.FLOAT else DataType.INT
        return arg_type  # min/max preserve the input type

    def display(self) -> str:
        arg = "*" if self.argument is None else self.argument.display()
        if self.distinct:
            arg = "DISTINCT " + arg
        return "%s(%s) AS %s" % (self.function.upper(), arg, self.alias)


class Accumulator:
    """Incremental state for one aggregate over one group."""

    def __init__(self, function: str, distinct: bool = False,
                 count_star: bool = False):
        self.function = function
        self.distinct = distinct
        self.count_star = count_star
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        self._seen = set() if distinct else None

    @classmethod
    def for_spec(cls, spec: "AggregateSpec") -> "Accumulator":
        return cls(spec.function, spec.distinct,
                   count_star=(spec.function == "count"
                               and spec.argument is None))

    def add(self, value) -> None:
        """Fold one value in; NULLs are ignored except by COUNT(*)."""
        if self.function == "count" and self.count_star:
            self.count += 1
            return
        if value is None:
            return
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self.fold(1, value)

    def fold(self, count: int, value) -> None:
        """Fold in ``count`` non-NULL values already reduced to
        ``value`` — their sum (SUM/AVG), least (MIN) or greatest (MAX);
        ignored by COUNT."""
        self.count += count
        if self.function in ("sum", "avg"):
            self.total += value
        elif self.function == "min":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.function == "max":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self):
        """Final aggregate value; SQL semantics for empty groups."""
        if self.function == "count":
            return self.count
        if self.count == 0:
            return None
        if self.function == "sum":
            return self.total
        if self.function == "avg":
            return self.total / self.count
        if self.function == "min":
            return self.minimum
        return self.maximum
