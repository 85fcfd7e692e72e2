"""Typed schemas for relations.

A :class:`Schema` is an ordered list of :class:`Column` objects. Rows are
plain Python tuples laid out positionally according to the schema; all
row-level code (executor operators, expression evaluation) addresses
columns by position, with names resolved once at bind time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import CatalogError, SchemaError


class DataType(enum.Enum):
    """Scalar column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    @property
    def default_width(self) -> int:
        """Bytes used for the page-size model of a value of this type."""
        return _DEFAULT_WIDTHS[self]

    def coerce(self, value):
        """Coerce a Python value to this type, raising on mismatch."""
        if value is None:
            return None
        try:
            if self is DataType.INT:
                if isinstance(value, bool):
                    raise TypeError
                return int(value)
            if self is DataType.FLOAT:
                if isinstance(value, bool):
                    raise TypeError
                return float(value)
            if self is DataType.STR:
                if not isinstance(value, str):
                    raise TypeError
                return value
            if self is DataType.BOOL:
                if not isinstance(value, bool):
                    raise TypeError
                return value
        except (TypeError, ValueError):
            raise SchemaError(
                "value %r is not valid for type %s" % (value, self.value),
                dtype=self.value,
            )
        raise CatalogError("unknown data type %r" % self)


_DEFAULT_WIDTHS = {
    DataType.INT: 4,
    DataType.FLOAT: 8,
    DataType.STR: 24,
    DataType.BOOL: 1,
}


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and a byte width for the page model."""

    name: str
    dtype: DataType
    width: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.dtype, DataType):
            raise TypeError("column %r: dtype must be a DataType, got %r"
                            % (self.name, self.dtype))
        if self.width is None:
            object.__setattr__(self, "width", self.dtype.default_width)

    def renamed(self, name: str) -> "Column":
        return Column(name, self.dtype, self.width)


class Schema:
    """An ordered, name-addressable list of columns.

    Column names within one schema must be unique. Lookup by name is O(1).
    """

    def __init__(self, columns: Iterable[Column]):
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._width: Optional[int] = None
        self._index = {}
        for i, col in enumerate(self.columns):
            if col.name in self._index:
                raise CatalogError("duplicate column name %r in schema" % col.name)
            self._index[col.name] = i

    @classmethod
    def of(cls, *specs: Tuple[str, DataType]) -> "Schema":
        """Convenience constructor: ``Schema.of(("did", DataType.INT), ...)``."""
        return cls(Column(name, dtype) for name, dtype in specs)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def names(self) -> List[str]:
        return [col.name for col in self.columns]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of the named column, raising CatalogError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(
                "no column %r in schema (%s)" % (name, ", ".join(self.names()))
            )

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def row_width(self) -> int:
        """Total byte width of one row under the page-size model, summed
        on first call (a schema is immutable)."""
        if self._width is None:
            self._width = sum(col.width for col in self.columns) or 1
        return self._width

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema of a projection onto the named columns, in that order."""
        return Schema(self.column(name) for name in names)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation (e.g. a join output).

        Name collisions raise; callers qualify names before concatenating.
        """
        return Schema(tuple(self.columns) + tuple(other.columns))

    def qualified(self, alias: str) -> "Schema":
        """A copy with every column renamed to ``alias.column``."""
        return Schema(
            col.renamed("%s.%s" % (alias, col.name)) for col in self.columns
        )

    def validate_row(self, row: Sequence) -> tuple:
        """Coerce a row to this schema, raising on arity/type mismatch.

        Type mismatches raise :class:`SchemaError` (a
        :class:`CatalogError` subtype) tagged with the offending
        column's name and declared dtype.
        """
        if len(row) != len(self.columns):
            raise CatalogError(
                "row arity %d does not match schema arity %d"
                % (len(row), len(self.columns))
            )
        out = []
        for col, value in zip(self.columns, row):
            try:
                out.append(col.dtype.coerce(value))
            except SchemaError as err:
                if err.column is None:
                    err.column = col.name
                raise
        return tuple(out)

    def __repr__(self) -> str:
        cols = ", ".join("%s %s" % (c.name, c.dtype.value) for c in self.columns)
        return "Schema(%s)" % cols
