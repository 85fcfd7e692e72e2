"""Typed numpy column storage: the executor's native table layout.

A :class:`ColumnStore` holds one :class:`ColumnVector` per schema column:
a dtype-homogeneous numpy array (``int64`` for INT, ``float64`` for
FLOAT, ``bool_`` for BOOL, ``int32`` dictionary codes for STR) plus a
*validity bitmap* — a boolean array with ``True`` for present values —
implementing SQL's three-valued NULL semantics without ``object`` boxing.
String columns are dictionary-encoded: the distinct strings live once in
a :class:`StringDictionary` and rows store 32-bit codes, so equality
probes and GROUP BY over strings run as integer kernels.

The store *is* the table: a :class:`~repro.storage.table.Table` keeps
its rows only here, over every *physical* position below its base,
append-only like a heap — dead and uncommitted versions sit in it and a
scan gathers the positions its snapshot sees (:meth:`ColumnStore.take`).
Rows inserted since the last compaction wait as a short tail of tuples
on the table until :meth:`ColumnStore.extend` folds them in. A change
that moves positions works on the columns themselves: vacuum keeps the
positions that are not frozen-dead and clustering permutes them (both
:meth:`ColumnStore.take`), and truncation keeps a prefix. See
docs/execution.md ("Columnar storage").

Value fidelity is absolute: a value must round-trip ``Python ->
array -> Python`` bit-exactly or the column refuses encoding and falls
back to a plain Python list inside the store, so kernels and
``Expr.eval`` always see the same values. In particular ints beyond 64
bits are never narrowed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .schema import DataType, Schema

#: |value| bound under which int64 arithmetic kernels cannot overflow
#: (two operands summed or multiplied stay inside the int64 range)
INT64_SAFE = 2 ** 62


class StringDictionary:
    """Distinct strings of one column, in first-appearance order.

    Codes are indexes into :attr:`entries`; once assigned, a code is
    never reused or remapped, so views taken before an append stay
    valid. Ordered comparisons use :meth:`sort_ranks`, a cached
    rank-permutation recomputed only when entries were added.
    """

    __slots__ = ("entries", "code_of", "_ranks", "_ranks_size", "_sorted")

    def __init__(self):
        self.entries: List[str] = []
        self.code_of: Dict[str, int] = {}
        self._ranks = None
        self._ranks_size = -1
        self._sorted = None

    def __len__(self) -> int:
        return len(self.entries)

    def encode(self, value: str) -> int:
        code = self.code_of.get(value)
        if code is None:
            code = len(self.entries)
            self.entries.append(value)
            self.code_of[value] = code
        return code

    def lookup(self, value) -> int:
        """Code for ``value``, or -1 when absent (never inserts)."""
        return self.code_of.get(value, -1)

    def sort_ranks(self):
        """``ranks[code]`` = position of that entry in sorted order.

        Lets MIN/MAX and ordered comparisons over codes use integer
        kernels: ``ranks[a] < ranks[b]`` iff ``entries[a] < entries[b]``.
        """
        if self._ranks_size != len(self.entries):
            order = sorted(range(len(self.entries)),
                           key=self.entries.__getitem__)
            ranks = np.empty(len(self.entries), dtype=np.int64)
            for rank, code in enumerate(order):
                ranks[code] = rank
            self._ranks = ranks
            self._sorted = [self.entries[code] for code in order]
            self._ranks_size = len(self.entries)
        return self._ranks

    def sorted_entries(self) -> List[str]:
        """Entries in sorted order (``sorted_entries()[rank]`` inverts
        :meth:`sort_ranks`); cached together with the ranks."""
        self.sort_ranks()
        return self._sorted


class ColumnVector:
    """One column over ``n`` rows: values array + validity bitmap.

    ``mask`` is ``None`` when every value is present (the overwhelmingly
    common case), else a boolean array with ``True`` marking valid rows.
    ``dictionary`` is set for string columns, whose ``values`` are int32
    codes (the code at an invalid row is 0 and meaningless).

    Vectors are immutable once handed out; :meth:`slice`, :meth:`take`
    and :meth:`select` build views/copies, never mutate.
    """

    __slots__ = ("values", "mask", "dictionary")

    def __init__(self, values, mask=None, dictionary=None):
        self.values = values
        self.mask = mask
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        """Exact Python value at ``i`` (or a sliced vector), so legacy
        per-element operator paths can index a vector like a list."""
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self.values))
            if step == 1:
                return self.slice(start, stop)
            return self.tolist()[i]
        return self.item(i)

    def __iter__(self):
        return iter(self.tolist())

    # ------------------------------------------------------- construction

    @staticmethod
    def from_values(dtype: DataType, column: Sequence) -> \
            Optional["ColumnVector"]:
        """Encode one column of Python values, or ``None`` when the
        values cannot round-trip exactly (the caller keeps a list)."""
        n = len(column)
        mask = None
        if any(v is None for v in column):
            mask = np.fromiter((v is not None for v in column),
                               dtype=np.bool_, count=n)
        try:
            if dtype is DataType.INT:
                values = np.fromiter(
                    (v if v is not None else 0 for v in column),
                    dtype=np.int64, count=n)
            elif dtype is DataType.FLOAT:
                values = np.fromiter(
                    (v if v is not None else 0.0 for v in column),
                    dtype=np.float64, count=n)
                if np.isnan(values).any():
                    # NaN breaks hash/identity-vs-equality parity with
                    # the row paths (dict buckets, set membership);
                    # such columns stay on the Python path
                    return None
            elif dtype is DataType.BOOL:
                values = np.fromiter(
                    (bool(v) for v in column),
                    dtype=np.bool_, count=n)
            elif dtype is DataType.STR:
                dictionary = StringDictionary()
                encode = dictionary.encode
                values = np.fromiter(
                    (encode(v) if v is not None else 0 for v in column),
                    dtype=np.int32, count=n)
                return ColumnVector(values, mask, dictionary)
            else:
                return None
        except (OverflowError, TypeError, ValueError):
            return None  # e.g. an int beyond 64 bits: keep Python rows
        return ColumnVector(values, mask)

    def extended(self, dtype: DataType, column: Sequence) -> \
            Optional["ColumnVector"]:
        """A new vector = self ++ encoded ``column`` (delta folding).

        String columns re-use (and grow) this vector's dictionary, so
        existing codes stay stable. Returns ``None`` if the tail cannot
        encode; the caller keeps the column as a list."""
        tail = None
        if dtype is DataType.STR and self.dictionary is not None:
            n = len(column)
            mask = None
            if any(v is None for v in column):
                mask = np.fromiter((v is not None for v in column),
                                   dtype=np.bool_, count=n)
            try:
                encode = self.dictionary.encode
                values = np.fromiter(
                    (encode(v) if v is not None else 0 for v in column),
                    dtype=np.int32, count=n)
            except (TypeError, ValueError):
                return None
            tail = ColumnVector(values, mask, self.dictionary)
        else:
            tail = ColumnVector.from_values(dtype, column)
            if tail is None:
                return None
            if (self.dictionary is not None) != \
                    (tail.dictionary is not None):
                return None
        if tail.dictionary is not None and \
                tail.dictionary is not self.dictionary:
            # re-encode the tail's codes into this vector's dictionary
            translate = np.fromiter(
                (self.dictionary.encode(entry)
                 for entry in tail.dictionary.entries),
                dtype=np.int32, count=len(tail.dictionary.entries))
            tail = ColumnVector(
                translate[tail.values] if len(tail.values) else
                tail.values,
                tail.mask, self.dictionary)
        values = np.concatenate([self.values, tail.values])
        if self.mask is None and tail.mask is None:
            mask = None
        else:
            left = (self.mask if self.mask is not None
                    else np.ones(len(self.values), dtype=np.bool_))
            right = (tail.mask if tail.mask is not None
                     else np.ones(len(tail.values), dtype=np.bool_))
            mask = np.concatenate([left, right])
        return ColumnVector(values, mask, self.dictionary)

    # ------------------------------------------------------------- views

    def slice(self, start: int, stop: int) -> "ColumnVector":
        return ColumnVector(
            self.values[start:stop],
            None if self.mask is None else self.mask[start:stop],
            self.dictionary,
        )

    def take(self, indices) -> "ColumnVector":
        return ColumnVector(
            self.values[indices],
            None if self.mask is None else self.mask[indices],
            self.dictionary,
        )

    def select(self, flags) -> "ColumnVector":
        return ColumnVector(
            self.values[flags],
            None if self.mask is None else self.mask[flags],
            self.dictionary,
        )

    # ------------------------------------------------- materialization

    def item(self, i: int):
        """The exact Python value at row ``i`` (late materialization of
        a single cell)."""
        if self.mask is not None and not self.mask[i]:
            return None
        if self.dictionary is not None:
            return self.dictionary.entries[int(self.values[i])]
        return self.values[i].item()

    def tolist(self) -> list:
        """The whole column as exact Python objects (the pipeline
        breaker: rows are gathered only here)."""
        if self.dictionary is not None:
            entries = self.dictionary.entries
            # a NULL holds code 0, which an empty dictionary lacks
            out = ([entries[c] for c in self.values.tolist()] if entries
                   else [None] * len(self.values))
        else:
            out = self.values.tolist()
        if self.mask is not None:
            for i in np.nonzero(~self.mask)[0].tolist():
                out[i] = None
        return out

    # ---------------------------------------------------------- kernels

    def valid_mask(self):
        """Validity as a full boolean array (allocates when all-valid)."""
        if self.mask is not None:
            return self.mask
        return np.ones(len(self.values), dtype=np.bool_)

    def true_flags(self):
        """Selection flags under ``value IS TRUE`` semantics (NULL and
        everything non-boolean select nothing)."""
        if self.values.dtype == np.bool_ and self.dictionary is None:
            if self.mask is None:
                return self.values
            return self.values & self.mask
        return np.zeros(len(self.values), dtype=np.bool_)

    def __repr__(self) -> str:
        kind = ("str[dict %d]" % len(self.dictionary)
                if self.dictionary is not None else str(self.values.dtype))
        return "ColumnVector(%s, %d rows%s)" % (
            kind, len(self.values),
            "" if self.mask is None else ", nullable")


class ColumnStore:
    """All columns of one table prefix, ready for vectorized scans.

    ``columns[j]`` is a :class:`ColumnVector`, or a plain Python list
    for the rare column that refuses exact encoding (then that column
    simply runs on the interpreter path; the others stay vectorized).
    """

    __slots__ = ("schema", "columns", "num_rows")

    def __init__(self, schema: Schema, columns: list, num_rows: int):
        self.schema = schema
        self.columns = columns
        self.num_rows = num_rows

    @staticmethod
    def build(schema: Schema, rows: Sequence[tuple]) -> "ColumnStore":
        if rows:
            raw = list(zip(*rows))
        else:
            raw = [() for _ in schema]
        columns = []
        for col, values in zip(schema, raw):
            vector = ColumnVector.from_values(col.dtype, list(values))
            columns.append(vector if vector is not None else list(values))
        return ColumnStore(schema, columns, len(rows))

    def extend(self, rows: Sequence[tuple]) -> "ColumnStore":
        """Fold a row-form delta tail into the columnar base, returning
        the (new) store. Dictionary codes of existing strings are
        preserved across compactions."""
        if not rows:
            return self
        raw = list(zip(*rows))
        columns = []
        for col, current, values in zip(self.schema, self.columns, raw):
            values = list(values)
            if isinstance(current, ColumnVector):
                merged = current.extended(col.dtype, values)
                if merged is None:
                    merged = (current.tolist() + values)
            else:
                merged = current + values
            columns.append(merged)
        return ColumnStore(self.schema, columns,
                           self.num_rows + len(rows))

    def take(self, positions: Sequence[int]) -> list:
        """Every column at ``positions``, in that order: one fancy index
        per typed column, an element walk for a list column."""
        at = np.asarray(positions, dtype=np.intp)
        return [col.take(at) if isinstance(col, ColumnVector)
                else [col[p] for p in positions]
                for col in self.columns]

    def rows(self) -> List[tuple]:
        """The rows as tuples of exact Python values."""
        return list(zip(*map(materialize, self.columns)))

    def column_slices(self, start: int, stop: int) -> list:
        return [
            (col.slice(start, stop) if isinstance(col, ColumnVector)
             else col[start:stop])
            for col in self.columns
        ]


def concat_columns(parts: list):
    """Concatenate per-batch column pieces (ColumnVectors and/or lists)
    into one column; used by joins to assemble the build side. Falls
    back to one Python list unless every piece is a ColumnVector over
    the same dictionary (or dictionary-free)."""
    if not parts:
        return []
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    if isinstance(first, ColumnVector) and all(
            isinstance(p, ColumnVector)
            and p.dictionary is first.dictionary
            and p.values.dtype == first.values.dtype
            for p in parts[1:]):
        values = np.concatenate([p.values for p in parts])
        if all(p.mask is None for p in parts):
            mask = None
        else:
            mask = np.concatenate([p.valid_mask() for p in parts])
        return ColumnVector(values, mask, first.dictionary)
    out: list = []
    for p in parts:
        out.extend(p.tolist() if isinstance(p, ColumnVector) else p)
    return out


_EXACT_DTYPES = {int: DataType.INT, float: DataType.FLOAT,
                 bool: DataType.BOOL, str: DataType.STR}


def encode_exact(column):
    """``column`` as a :class:`ColumnVector` when its non-NULL values
    are all of one exactly-encodable Python type (so ``tolist()`` gives
    the same objects back), else unchanged. This is how a pipeline
    breaker turns a row-backed input columnar without trusting a
    declared schema: ``True`` in an INT column, or an int among floats,
    keeps the column a list."""
    if isinstance(column, ColumnVector):
        return column
    kinds = set(map(type, column))
    kinds.discard(type(None))
    if len(kinds) != 1:
        return column
    dtype = _EXACT_DTYPES.get(kinds.pop())
    if dtype is None:
        return column
    vector = ColumnVector.from_values(dtype, column)
    return vector if vector is not None else column


def materialize(column) -> list:
    """A column piece as a plain Python list (exact objects)."""
    if isinstance(column, ColumnVector):
        return column.tolist()
    return column if isinstance(column, list) else list(column)
