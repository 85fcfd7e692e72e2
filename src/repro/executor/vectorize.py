"""Columnar batches and the batch-at-a-time expression compiler.

Operators exchange :class:`Batch` objects — column-oriented slices of
~:data:`BATCH_ROWS` rows. A column is either a plain Python sequence (a
join output reassembled from tuples, a tuple-at-a-time operator's
chunked output) or a typed numpy
:class:`~repro.storage.columnar.ColumnVector` — values array + validity
bitmap (+ string dictionary) — flowing straight out of columnar table
storage. Scalar expression trees are *compiled once per operator
execution* into column-level closures (:func:`compile_expr`); over
ColumnVector operands they evaluate as numpy kernels (mask-based
three-valued logic, dictionary-code comparisons for strings), and fall
back to the per-element path whenever exact Python semantics cannot be
guaranteed wholesale (mixed-type arithmetic, int64 overflow risk,
unhashable literals, floats as hash keys).

Two invariants specify the kernels against ``Expr.eval``:

- **Value fidelity.** Rows materialized from columns hold exactly the
  Python objects the storage layer holds (int64 ↔ int, float64 ↔ float,
  dictionary code ↔ the stored str), and every kernel implements the
  same SQL three-valued logic — and raises the same errors — as
  ``Expr.eval`` row by row. Any value or operation that cannot
  round-trip exactly refuses the kernel and runs per-element.
- **Chunked cost.** Where the cost formulas say one unit per row,
  operators charge one ``charge_cpu(n)`` per batch; every count is an
  exact integer, so ledger totals do not depend on where batch
  boundaries fall.
"""

from __future__ import annotations

import operator as _operator
from itertools import compress
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from ..bloom.filter import (
    NONE_HASH,
    combine_hash_arrays,
    hash_int64,
    stable_hash,
)
from ..errors import ExecutionError
from ..expr.nodes import (
    Arithmetic,
    BooleanExpr,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    Parameter,
    RuntimeMembership,
)
from ..storage import columnar
from ..storage.columnar import ColumnVector

np = columnar.np

#: target rows per batch; chosen so a batch of typical rows stays within
#: L2-cache-ish sizes while amortizing per-batch interpreter overhead
BATCH_ROWS = 1024

#: widest key domain (int span, dictionary codes) given a dense table
SMALL_DOMAIN = 1 << 16


def _as_list(column) -> Sequence:
    """A column piece as a plain Python sequence (exact objects)."""
    if isinstance(column, ColumnVector):
        return column.tolist()
    return column


class Batch:
    """A slice of rows with lazy dual representation.

    A batch is backed by *either* row tuples (:meth:`from_rows` — e.g.
    a join's output reassembled from tuples) *or* columns (the
    constructor — columnar storage slices, a projection's computed
    outputs), and converts on demand: :attr:`columns` transposes once
    and caches, :meth:`column` extracts a single column without paying
    for a full transpose, and :meth:`rows` is free on row-backed
    batches. A column is a plain sequence or a
    :class:`~repro.storage.columnar.ColumnVector`; late materialization
    means ColumnVector columns stay arrays through filters, projections
    and joins, and turn into Python objects only when :meth:`rows` is
    called at a pipeline breaker.

    Columns and row lists are treated as immutable by every operator —
    transformations build new sequences — so both may be shared freely
    between batches.
    """

    __slots__ = ("_columns", "_rows", "n", "width")

    def __init__(self, columns: Sequence[Sequence], n: int):
        self._columns = list(columns)
        self._rows = None
        self.n = n
        self.width = len(self._columns)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int) -> "Batch":
        """Wrap a list of row tuples (``width`` disambiguates the
        zero-row case). The list is adopted, not copied — callers must
        not mutate it afterwards."""
        batch = cls.__new__(cls)
        batch._columns = None
        batch._rows = rows if isinstance(rows, list) else list(rows)
        batch.n = len(batch._rows)
        batch.width = width
        return batch

    @property
    def columns(self) -> List[Sequence]:
        """All columns (transposing from rows on first access). Entries
        may be ColumnVectors on columnar-sourced batches."""
        columns = self._columns
        if columns is None:
            if self._rows:
                columns = list(zip(*self._rows))
            else:
                columns = [() for _ in range(self.width)]
            self._columns = columns
        return columns

    def column(self, j: int) -> Sequence:
        """Column ``j`` alone — a single-column gather on row-backed
        batches, an index on column-backed ones."""
        if self._columns is not None:
            return self._columns[j]
        return [row[j] for row in self._rows]

    def rows(self) -> List[tuple]:
        """The rows as plain tuples of exactly the stored Python
        objects. This is the late-materialization pipeline breaker for
        columnar batches. Cached; treat as immutable."""
        rows = self._rows
        if rows is None:
            if not self._columns:
                rows = [()] * self.n
            else:
                rows = list(zip(*[_as_list(c) for c in self._columns]))
            self._rows = rows
        return rows

    def select(self, flags: Sequence[bool]) -> "Batch":
        """Keep the rows whose flag is truthy. ``flags`` may be a numpy
        boolean array (kernel output) or any Python sequence."""
        if self._columns is None:
            return Batch.from_rows(
                list(compress(self._rows, flags)), self.width)
        is_array = isinstance(flags, np.ndarray)
        if not is_array and any(isinstance(c, ColumnVector)
                                for c in self._columns):
            flags = np.fromiter((bool(f) for f in flags),
                                dtype=np.bool_, count=self.n)
            is_array = True
        if is_array:
            columns = [
                c.select(flags) if isinstance(c, ColumnVector)
                else list(compress(c, flags))
                for c in self._columns
            ]
            return Batch(columns, int(flags.sum()))
        kept = flags.count(True) if isinstance(flags, list) else None
        columns = [list(compress(col, flags)) for col in self._columns]
        n = kept if kept is not None else (
            len(columns[0]) if columns else 0)
        if not columns:
            n = sum(1 for flag in flags if flag)
        return Batch(columns, n)

    def take(self, indices: Sequence[int]) -> "Batch":
        """Gather the rows at ``indices``, in order."""
        if self._columns is None:
            rows = self._rows
            return Batch.from_rows([rows[i] for i in indices], self.width)
        columns = [
            c.take(indices) if isinstance(c, ColumnVector)
            else [c[i] for i in indices]
            for c in self._columns
        ]
        return Batch(columns, len(indices))

    def head(self, count: int) -> "Batch":
        if self._columns is None:
            return Batch.from_rows(self._rows[:count], self.width)
        columns = [
            c.slice(0, count) if isinstance(c, ColumnVector)
            else c[:count]
            for c in self._columns
        ]
        return Batch(columns, min(count, self.n))

    def chunks(self) -> Iterator["Batch"]:
        """This batch cut into pieces of at most :data:`BATCH_ROWS` rows
        (views over the same columns / row list, not copies)."""
        if self.n <= BATCH_ROWS:
            yield self
            return
        for start in range(0, self.n, BATCH_ROWS):
            stop = min(start + BATCH_ROWS, self.n)
            if self._columns is None:
                yield Batch.from_rows(self._rows[start:stop], self.width)
            else:
                yield Batch([
                    c.slice(start, stop) if isinstance(c, ColumnVector)
                    else c[start:stop]
                    for c in self._columns
                ], stop - start)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return "Batch(%d cols x %d rows)" % (self.width, self.n)


def batches_from_rows(rows: Iterable[tuple], width: int,
                      batch_rows: int = BATCH_ROWS) -> Iterator[Batch]:
    """Chunk a row stream into batches: how a tuple-at-a-time operator
    exposes its generator through ``batches()``."""
    chunk: List[tuple] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_rows:
            yield Batch.from_rows(chunk, width)
            chunk = []
    if chunk:
        yield Batch.from_rows(chunk, width)


def batches_from_list(rows: Sequence[tuple], width: int,
                      batch_rows: int = BATCH_ROWS) -> Iterator[Batch]:
    """Batches over an already-materialized row list."""
    for start in range(0, len(rows), batch_rows):
        yield Batch.from_rows(rows[start:start + batch_rows], width)


def batches_from_store(store: "columnar.ColumnStore",
                       batch_rows: int = BATCH_ROWS) -> Iterator[Batch]:
    """Batches over a columnar table base: each batch's columns are
    zero-copy ColumnVector slices. Boundaries are identical to
    :func:`batches_from_list` over the same rows, so batch-granularity
    charges (and LimitOp behavior) are layout-independent."""
    for start in range(0, store.num_rows, batch_rows):
        stop = min(start + batch_rows, store.num_rows)
        yield Batch(store.column_slices(start, stop), stop - start)


# ------------------------------------------------------------- compiler

ColumnFn = Callable[[Batch], Sequence]


_CMP_PYOP = {"=": "==", "!=": "!=", "<>": "!=",
             "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_PYOP = {"+": "+", "-": "-", "*": "*", "/": "/"}
_ARITH_PROBES = {"+": _operator.add, "-": _operator.sub,
                 "*": _operator.mul, "/": _operator.truediv}

# Codegen cache: one compiled comprehension per operator symbol. The
# generated lambda runs a single C-level list comprehension over the
# zipped operand columns — the per-element path for operands a numpy
# kernel cannot take exactly.
_BINOP_CACHE = {}


def _binop_fn(pyop: str):
    fn = _BINOP_CACHE.get(pyop)
    if fn is None:
        fn = eval(  # noqa: S307 - fixed template over a vetted op table
            "lambda lv, rv: "
            "[None if a is None or b is None else (a %s b) "
            "for a, b in zip(lv, rv)]" % pyop
        )
        _BINOP_CACHE[pyop] = fn
    return fn


def _const_reader(expr: Expr):
    """A zero-arg reader when ``expr`` is a per-batch constant (late-
    bound for parameters), else None."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda: value
    if isinstance(expr, Parameter):
        return lambda: expr.value
    return None


def compile_expr(expr: Expr, counter=None) -> ColumnFn:
    """Compile a resolved expression tree into a column-level closure.

    The closure takes a :class:`Batch` and returns a sequence of ``n``
    values — the expression evaluated for every row — with semantics
    identical to calling ``expr.eval(row)`` per row (SQL three-valued
    logic, ``Expr.eval``'s error messages, late-bound parameters
    and filter-set memberships). Over ColumnVector inputs the result is
    itself a ColumnVector whenever a numpy kernel applies.

    With a ``counter`` (the operator evaluating it), every batch
    evaluation of the *top-level* closure bumps its ``kernel_batches``
    when the result stayed columnar (a :class:`ColumnVector`), else its
    ``fallback_batches`` (sub-expressions are not separately counted —
    the top-level result type already tells whether the pipeline
    stayed columnar).
    """
    fn = _compile(expr)
    if counter is None:
        return fn

    def counted(batch: Batch):
        result = fn(batch)
        if result.__class__ is ColumnVector:
            counter.kernel_batches += 1
        else:
            counter.fallback_batches += 1
        return result

    return counted


def _compile(expr: Expr) -> ColumnFn:
    if isinstance(expr, ColumnRef):
        if expr.position is None:
            raise ExecutionError(
                "unresolved column reference %r" % expr.name)
        position = expr.position
        return lambda batch: batch.column(position)

    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch: [value] * batch.n

    if isinstance(expr, Parameter):
        # read through the node per batch so execute-time (re)binding of
        # the shared parameter cell is observed, like Parameter.eval
        return lambda batch: [expr.value] * batch.n

    if isinstance(expr, Comparison):
        return _compile_comparison(expr)

    if isinstance(expr, Arithmetic):
        return _compile_arithmetic(expr)

    if isinstance(expr, BooleanExpr):
        return _compile_boolean(expr)

    if isinstance(expr, InList):
        return _compile_in_list(expr)

    if isinstance(expr, RuntimeMembership):
        return _compile_membership(expr)

    raise ExecutionError(
        "cannot compile expression %r for batch evaluation"
        % type(expr).__name__
    )


def compile_filter(expr: Expr, counter=None
                   ) -> Callable[[Batch], Sequence]:
    """Compile a predicate into a selection-flag closure.

    Rows are kept only when the predicate is exactly ``True`` (never for
    NULL): ``eval(row) is True``.
    Returns a numpy boolean array when the predicate evaluated as a
    kernel, else a Python list of bools. ``counter`` counts per batch
    exactly as in :func:`compile_expr`.
    """
    value_fn = compile_expr(expr)

    def run(batch: Batch):
        values = value_fn(batch)
        if isinstance(values, ColumnVector):
            if counter is not None:
                counter.kernel_batches += 1
            return values.true_flags()
        if counter is not None:
            counter.fallback_batches += 1
        return [v is True for v in values]

    return run


# ------------------------------------------------------ numpy kernels

def _all_null(n: int) -> ColumnVector:
    return ColumnVector(np.zeros(n, dtype=np.bool_),
                        np.zeros(n, dtype=np.bool_))


def _combined_mask(lvec: Optional[ColumnVector],
                   rvec: Optional[ColumnVector]):
    mask = None
    if lvec is not None and lvec.mask is not None:
        mask = lvec.mask
    if rvec is not None and rvec.mask is not None:
        mask = rvec.mask if mask is None else (mask & rvec.mask)
    return mask


def _is_plain_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating))


#: |int| bound under which an int64 -> float64 cast is exact. Python
#: compares (and divides) int/float pairs mathematically; numpy casts to
#: float64 first, so kernels mixing the two dtypes demand this bound.
_FLOAT_EXACT = 2 ** 53


def _int_vals_float_exact(values) -> bool:
    if not len(values):
        return True
    return max(abs(int(values.min())), abs(int(values.max()))) \
        < _FLOAT_EXACT


_NP_CMP = None


def _np_cmp_ops():
    global _NP_CMP
    if _NP_CMP is None:
        _NP_CMP = {"=": np.equal, "!=": np.not_equal, "<>": np.not_equal,
                   "<": np.less, "<=": np.less_equal,
                   ">": np.greater, ">=": np.greater_equal}
    return _NP_CMP


def _cmp_kernel(op: str, lvec, rvec, lconst, rconst,
                n: int) -> Optional[ColumnVector]:
    """Vectorized comparison over (vector|const) operands, or None to
    fall back to the exact per-element path."""
    if lvec is None and lconst is not None:
        value = lconst()
        if value is None:
            return _all_null(n)
        return _cmp_vec_const(op, rvec, value, n, flipped=True)
    if rvec is None and rconst is not None:
        value = rconst()
        if value is None:
            return _all_null(n)
        return _cmp_vec_const(op, lvec, value, n, flipped=False)
    if lvec is None or rvec is None:
        return None
    # vector vs vector
    mask = _combined_mask(lvec, rvec)
    if lvec.dictionary is not None or rvec.dictionary is not None:
        if lvec.dictionary is None or rvec.dictionary is None:
            return None  # str vs non-str: per-element path raises
        if op not in ("=", "!=", "<>"):
            return None  # ordered cross-dictionary compare: fall back
        if lvec.dictionary is rvec.dictionary:
            eq = lvec.values == rvec.values
        else:
            left_of = lvec.dictionary.lookup
            entries = rvec.dictionary.entries
            trans = np.fromiter((left_of(e) for e in entries),
                                dtype=np.int64,
                                count=len(entries)) if entries else \
                np.empty(0, dtype=np.int64)
            eq = lvec.values.astype(np.int64) == (
                trans[rvec.values] if len(entries)
                else np.full(n, -1, dtype=np.int64))
        values = eq if op == "=" else ~eq
        return ColumnVector(values, mask)
    lv, rv = lvec.values, rvec.values
    if (lv.dtype == np.int64 and rv.dtype == np.float64
            and not _int_vals_float_exact(lv)) or \
            (rv.dtype == np.int64 and lv.dtype == np.float64
             and not _int_vals_float_exact(rv)):
        return None  # the int64 -> float64 cast would round
    values = _np_cmp_ops()[op](lv, rv)
    return ColumnVector(values, mask)


def _cmp_vec_const(op: str, vec: ColumnVector, value, n: int,
                   flipped: bool) -> Optional[ColumnVector]:
    """``vec <op> value`` (or ``value <op> vec`` when flipped)."""
    if flipped:
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if vec.dictionary is not None:
        if not isinstance(value, str):
            return None  # str column vs non-str: per-element path raises
        if op in ("=", "!=", "<>"):
            code = vec.dictionary.lookup(value)
            eq = (vec.values == code if code >= 0
                  else np.zeros(n, dtype=np.bool_))
            values = eq if op == "=" else ~eq
        else:
            entries = vec.dictionary.entries
            py = {"<": _operator.lt, "<=": _operator.le,
                  ">": _operator.gt, ">=": _operator.ge}[op]
            lut = np.fromiter((py(e, value) for e in entries),
                              dtype=np.bool_, count=len(entries)) \
                if entries else np.empty(0, dtype=np.bool_)
            values = (lut[vec.values] if len(entries)
                      else np.zeros(n, dtype=np.bool_))
        return ColumnVector(values, vec.mask)
    if not _is_plain_number(value):
        return None
    if isinstance(value, float) and vec.values.dtype == np.int64 \
            and not _int_vals_float_exact(vec.values):
        return None
    if isinstance(value, int) and not isinstance(value, bool) \
            and vec.values.dtype == np.float64 \
            and abs(value) >= _FLOAT_EXACT:
        return None
    try:
        values = _np_cmp_ops()[op](vec.values, value)
    except (OverflowError, TypeError):
        return None  # e.g. an int constant beyond the int64 range
    return ColumnVector(values, vec.mask)


def _numeric_operand(vec: Optional[ColumnVector]):
    """The numeric values array of a vector operand (bools widened so
    Python's ``True + True == 2`` arithmetic is preserved), or None."""
    if vec is None:
        return None
    if vec.dictionary is not None:
        return None
    values = vec.values
    if values.dtype == np.bool_:
        return values.astype(np.int64)
    return values


def _arith_kernel(op: str, lvec, rvec, lconst, rconst,
                  n: int) -> Optional[ColumnVector]:
    lvals = _numeric_operand(lvec) if lvec is not None else None
    rvals = _numeric_operand(rvec) if rvec is not None else None
    if lvec is not None and lvals is None:
        return None
    if rvec is not None and rvals is None:
        return None
    if lvals is None:
        if lconst is None:
            return None
        value = lconst()
        if value is None:
            return _all_null(n)
        if not _is_plain_number(value):
            return None
        lvals = value
    if rvals is None:
        if rconst is None:
            return None
        value = rconst()
        if value is None:
            return _all_null(n)
        if not _is_plain_number(value):
            return None
        rvals = value
    mask = _combined_mask(lvec, rvec)

    scalar_l = not isinstance(lvals, np.ndarray)
    scalar_r = not isinstance(rvals, np.ndarray)
    if scalar_l and isinstance(lvals, bool):
        lvals = int(lvals)
    if scalar_r and isinstance(rvals, bool):
        rvals = int(rvals)

    if op == "/":
        # Python's int/int is the correctly-rounded true quotient;
        # float64 division rounds the operands first, which only agrees
        # when both sides convert to float64 exactly
        l_int = (isinstance(lvals, int) if scalar_l
                 else lvals.dtype == np.int64)
        r_int = (isinstance(rvals, int) if scalar_r
                 else rvals.dtype == np.int64)
        if l_int and r_int:
            lb = abs(lvals) if scalar_l else (
                max(abs(int(lvals.min())), abs(int(lvals.max())))
                if len(lvals) else 0)
            rb = abs(rvals) if scalar_r else (
                max(abs(int(rvals.min())), abs(int(rvals.max())))
                if len(rvals) else 0)
            if lb >= _FLOAT_EXACT or rb >= _FLOAT_EXACT:
                return None
        elif l_int and not scalar_l and not _int_vals_float_exact(lvals):
            return None
        elif r_int and not scalar_r and not _int_vals_float_exact(rvals):
            return None
        # the per-element path raises whenever any row divides a
        # non-NULL numerator by zero — before producing a single value
        lvalid = (lvec.valid_mask() if lvec is not None
                  and lvec.mask is not None else None)
        if scalar_r:
            if rvals == 0:
                bad = np.ones(n, dtype=np.bool_) if lvalid is None \
                    else lvalid
                if bad.any():
                    raise ExecutionError("division by zero")
        else:
            bad = (rvals == 0)
            if rvec.mask is not None:
                bad = bad & rvec.mask
            if lvalid is not None:
                bad = bad & lvalid
            if bad.any():
                raise ExecutionError("division by zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.true_divide(lvals, rvals)
        return ColumnVector(values, mask)

    # +, -, *: ints must not wrap — Python ints are unbounded, so an
    # operand range that could overflow int64 falls back to per-element
    int_l = scalar_l and isinstance(lvals, int) or (
        not scalar_l and lvals.dtype == np.int64)
    int_r = scalar_r and isinstance(rvals, int) or (
        not scalar_r and rvals.dtype == np.int64)
    if int_l and int_r:
        lscale = abs(lvals) if scalar_l else (
            max(abs(int(lvals.min())), abs(int(lvals.max())))
            if len(lvals) else 0)
        rscale = abs(rvals) if scalar_r else (
            max(abs(int(rvals.min())), abs(int(rvals.max())))
            if len(rvals) else 0)
        if op == "*":
            if lscale * max(1, rscale) >= columnar.INT64_SAFE:
                return None
        elif lscale + rscale >= columnar.INT64_SAFE:
            return None
    fn = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
    values = fn(lvals, rvals)
    return ColumnVector(values, mask)


def _decided_and_null(values, n: int, decided_value: bool):
    """(decided, null) boolean arrays for one boolean argument's output
    over the currently-alive rows."""
    if isinstance(values, ColumnVector):
        if values.dictionary is None and values.values.dtype == np.bool_:
            valid = values.mask
            v = values.values
            if valid is None:
                return (v == decided_value), np.zeros(len(v),
                                                      dtype=np.bool_)
            return (v == decided_value) & valid, ~valid
        values = values.tolist()
    m = len(values)
    decided = np.fromiter((x is decided_value for x in values),
                          dtype=np.bool_, count=m)
    null = np.fromiter((x is None for x in values),
                       dtype=np.bool_, count=m)
    return decided, null


def _compile_comparison(expr: Comparison) -> ColumnFn:
    lconst = _const_reader(expr.left)
    rconst = _const_reader(expr.right)
    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)
    op = expr.op
    fn = _binop_fn(_CMP_PYOP[op])

    def run(batch: Batch):
        lv = None if lconst is not None else left_fn(batch)
        rv = None if rconst is not None else right_fn(batch)
        if isinstance(lv, ColumnVector) or isinstance(rv, ColumnVector):
            result = _cmp_kernel(
                op,
                lv if isinstance(lv, ColumnVector) else None,
                rv if isinstance(rv, ColumnVector) else None,
                lconst, rconst, batch.n)
            if result is not None:
                return result
        if lv is None:
            lv = [lconst()] * batch.n
        if rv is None:
            rv = [rconst()] * batch.n
        lv = _as_list(lv)
        rv = _as_list(rv)
        try:
            return fn(lv, rv)
        except TypeError:
            for a, b in zip(lv, rv):
                if a is None or b is None:
                    continue
                try:
                    a < b if op not in ("=", "!=", "<>") else a == b
                except TypeError:
                    raise ExecutionError(
                        "cannot compare %r with %r" % (a, b))
            raise

    return run


def _compile_arithmetic(expr: Arithmetic) -> ColumnFn:
    lconst = _const_reader(expr.left)
    rconst = _const_reader(expr.right)
    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)
    op = expr.op
    fn = _binop_fn(_ARITH_PYOP[op])

    def run(batch: Batch):
        lv = None if lconst is not None else left_fn(batch)
        rv = None if rconst is not None else right_fn(batch)
        if isinstance(lv, ColumnVector) or isinstance(rv, ColumnVector):
            result = _arith_kernel(
                op,
                lv if isinstance(lv, ColumnVector) else None,
                rv if isinstance(rv, ColumnVector) else None,
                lconst, rconst, batch.n)
            if result is not None:
                return result
        if lv is None:
            lv = [lconst()] * batch.n
        if rv is None:
            rv = [rconst()] * batch.n
        lv = _as_list(lv)
        rv = _as_list(rv)
        if op == "/":
            for a, b in zip(lv, rv):
                if a is not None and b == 0:
                    raise ExecutionError("division by zero")
        try:
            return fn(lv, rv)
        except TypeError:
            probe = _ARITH_PROBES[op]
            for a, b in zip(lv, rv):
                if a is None or b is None:
                    continue
                try:
                    probe(a, b)
                except TypeError:
                    raise ExecutionError(
                        "cannot apply %r to %r and %r" % (op, a, b))
            raise

    return run


def _compile_boolean(expr: BooleanExpr) -> ColumnFn:
    arg_fns = [compile_expr(arg) for arg in expr.args]
    op = expr.op

    if op == "NOT":
        inner = arg_fns[0]

        def run_not(batch: Batch):
            values = inner(batch)
            if isinstance(values, ColumnVector) \
                    and values.dictionary is None \
                    and values.values.dtype == np.bool_:
                return ColumnVector(~values.values, values.mask)
            return [None if v is None else (not v)
                    for v in _as_list(values)]

        return run_not

    # AND / OR short-circuit *per row across arguments* in ``Expr.eval``
    # (a row decided by an earlier argument never evaluates later
    # ones — guards like ``b != 0 AND a / b > 1`` rely on this). The
    # batch version keeps that contract by narrowing to the still-
    # undecided rows before evaluating the next argument's column.
    decided_value = False if op == "AND" else True  # value that decides

    def run(batch: Batch) -> Sequence:
        n = batch.n
        result = np.full(n, not decided_value, dtype=np.bool_)
        saw_null = np.zeros(n, dtype=np.bool_)
        alive = None  # None = every row (avoids an arange on arg 1)
        current = batch
        for fn in arg_fns:
            if alive is not None and not len(alive):
                break
            values = fn(current)
            decided, null = _decided_and_null(values,
                                              current.n, decided_value)
            rows = alive if alive is not None else np.arange(n)
            dec_rows = rows[decided]
            result[dec_rows] = decided_value
            saw_null[rows[null]] = True
            survivors = ~decided
            if not survivors.all():
                alive = rows[survivors]
                current = batch.take(alive)
            elif alive is None:
                alive = rows
        null_out = np.zeros(n, dtype=np.bool_)
        if alive is not None and len(alive):
            live_null = alive[saw_null[alive]]
            null_out[live_null] = True
        elif alive is None:
            null_out = saw_null
        return ColumnVector(result, ~null_out if null_out.any() else None)

    return run


def probe_array(vec: ColumnVector, candidates):
    """Candidate match values encoded into ``vec``'s value domain, for
    set-membership kernels (IN lists, filter-set probes). Returns None
    when an exact encoding is impossible (fall back to per-element);
    candidates that can never equal a column value are simply dropped.
    """
    if vec.dictionary is not None:
        codes = [vec.dictionary.lookup(v) for v in candidates
                 if isinstance(v, str)]
        return np.asarray([c for c in codes if c >= 0],
                          dtype=vec.values.dtype)
    present = [v for v in candidates if _is_plain_number(v)]
    dtype = vec.values.dtype
    if dtype == np.bool_:
        present = [bool(v) for v in present if v == 0 or v == 1]
    elif dtype == np.int64:
        if any(isinstance(v, float) for v in present):
            # float candidates vs an int column: the float64
            # cast-compare is exact only for small ints — stay exact
            return None
    elif dtype == np.float64:
        if any(isinstance(v, int) and not isinstance(v, bool)
               and abs(v) >= _FLOAT_EXACT for v in present):
            return None
    try:
        return np.asarray(present, dtype=dtype)
    except (OverflowError, ValueError):
        return None


def _compile_in_list(expr: InList) -> ColumnFn:
    operand_fn = compile_expr(expr.operand)
    values = expr.values
    negated = expr.negated
    has_null = any(v is None for v in values)
    try:
        lookup = frozenset(values)
    except TypeError:  # unhashable literal: fall back to the tuple scan
        lookup = values

    def kernel(vec: ColumnVector, n: int) -> Optional[ColumnVector]:
        probe = probe_array(vec, [v for v in values if v is not None])
        if probe is None:
            return None
        found = (np.isin(vec.values, probe) if len(probe)
                 else np.zeros(n, dtype=np.bool_))
        mask = vec.mask
        if has_null:
            # a NULL in the list makes every miss UNKNOWN
            mask = found if mask is None else (found & mask)
        return ColumnVector(~found if negated else found, mask)

    def run(batch: Batch):
        operand = operand_fn(batch)
        if isinstance(operand, ColumnVector):
            result = kernel(operand, batch.n)
            if result is not None:
                return result
            operand = operand.tolist()
        out = []
        append = out.append
        for v in operand:
            if v is None:
                append(None)
                continue
            found = v in lookup
            if not found and has_null:
                append(None)  # NULL in the list makes a miss unknown
            else:
                append((not found) if negated else found)
        return out

    return run


def hash_lane(vec: ColumnVector, cache: dict):
    """``bloom.filter.stable_hash`` of every row of ``vec`` as an int64
    array, chosen by the column's dtype: ints and bools by the numeric
    hash kernel, floats once per distinct value, strings once per
    dictionary entry (kept in ``cache`` for the later batches of the
    same dictionary), NULL rows as the hash of None."""
    values = vec.values
    dictionary = vec.dictionary
    if dictionary is not None:
        entries = dictionary.entries
        lut = cache.get(dictionary, ())
        if len(lut) < len(entries):
            lut = cache[dictionary] = np.fromiter(
                map(stable_hash, entries), dtype=np.int64,
                count=len(entries))
        lane = (lut[values] if len(lut)
                else np.zeros(len(values), dtype=np.int64))
    elif values.dtype == np.float64:
        distinct, inverse = np.unique(values, return_inverse=True)
        lane = np.fromiter(map(hash, distinct.tolist()), dtype=np.int64,
                           count=len(distinct))[inverse]
    else:
        lane = hash_int64(values)
    if vec.mask is not None:
        lane = np.where(vec.mask, lane, NONE_HASH)
    return lane


def key_hashes(key_columns: Sequence[ColumnVector], cache: dict):
    """The stable hash a Bloom filter sees for each row's key: the
    column's own hash for one key column, the tuple combination for a
    composite key — what ``stable_hash`` gives the scalar key."""
    lanes = [hash_lane(vec, cache) for vec in key_columns]
    return lanes[0] if len(lanes) == 1 else combine_hash_arrays(lanes)


def _compile_membership(expr: RuntimeMembership) -> ColumnFn:
    arg_fns = [compile_expr(arg) for arg in expr.args]

    def run(batch: Batch):
        filter_set = expr.filter_set  # bound by bind_memberships()
        if filter_set is None:
            raise ExecutionError(
                "filter set %r was not bound before execution"
                % expr.param_id
            )
        return filter_set.contains([fn(batch) for fn in arg_fns])

    return run


def compile_optional_filter(expr: Optional[Expr], counter=None
                            ) -> Optional[Callable[[Batch], Sequence]]:
    return compile_filter(expr, counter) if expr is not None else None
