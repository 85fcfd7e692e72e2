"""Physical operators over one batch protocol.

Every operator implements ``_batches()``; ``batches()`` runs it,
returning a fresh iterator per call and keeping the operator's actuals
(rows, batches, time, charges). Column-oriented
:class:`~repro.executor.vectorize.Batch` objects of ~1024 rows flow
between operators, with predicates and projections
compiled once per execution into column-level closures. Re-invoking
``batches()`` re-executes the subtree (and re-charges its cost), which
is exactly what correlated nested iteration needs. All work is charged
to the shared :class:`RuntimeContext` ledger using the same formulas as
the optimizer's :class:`~repro.optimizer.cost.CostModel` — one
``charge_cpu(n)`` per batch where the formula says one step per row —
so measured and estimated cost components are directly comparable.

``Operator.rows()`` flattens ``batches()`` into tuples. The four
operators that are tuple-at-a-time by nature (merge and block nested
loops, nested iteration, function join) consume their children through
it and chunk their own generator with ``batches_from_rows``.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ExecutionError, FixpointLimitExceeded
from ..expr.aggregates import Accumulator, AggregateSpec
from ..expr.nodes import Expr, RuntimeMembership
from ..stats.estimator import yao_blocks
from ..storage.schema import Schema
from ..storage.table import Table, pages_for
from .runtime import FilterSet, RuntimeContext
from ..storage import columnar
from ..storage.columnar import ColumnVector
from .vectorize import (
    BATCH_ROWS,
    SMALL_DOMAIN,
    Batch,
    batches_from_list,
    batches_from_rows,
    batches_from_store,
    compile_expr,
    compile_optional_filter,
)

_np = columnar.np

Row = tuple

# Memory accounting granularity: collection-building loops charge their
# working memory against the per-query budget once per this many rows,
# so a runaway build fails with ResourceExhausted long before the
# process feels it, while the per-row hot path stays branch-cheap.
_MEM_CHUNK_MASK = 1023
_MEM_CHUNK_ROWS = _MEM_CHUNK_MASK + 1


def bind_memberships(expr: Optional[Expr], ctx: RuntimeContext) -> None:
    """Bind every RuntimeMembership node in a resolved tree to the
    execution's filter set before evaluation."""
    if expr is None:
        return
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, RuntimeMembership):
            node.filter_set = ctx.filter_set(node.param_id)
        for attr in ("left", "right"):
            child = getattr(node, attr, None)
            if isinstance(child, Expr):
                stack.append(child)
        for child in getattr(node, "args", ()) or ():
            if isinstance(child, Expr):
                stack.append(child)


class Operator:
    """Base class for physical operators.

    Subclasses implement :meth:`_batches`; :meth:`batches` runs it and
    keeps the operator's actuals, which the statement record copies
    after execution: ``executions``, ``batches_out``, ``rows_out``,
    inclusive wall ``seconds``, ``kernel_batches`` /
    ``fallback_batches`` (compiled-expression batches that stayed
    numpy kernels / fell to the per-element path), and the ledger
    charges made while this operator was the one running — an operator
    is its own ledger slice, with :class:`CostLedger`'s six fields. All
    are class-level zeros until the operator first bumps them.
    """

    #: further attributes the statement record copies (operator extras)
    EXTRAS: Tuple[str, ...] = ()

    executions = batches_out = rows_out = 0
    kernel_batches = fallback_batches = 0
    seconds = 0.0
    page_reads = page_writes = tuple_cpu = 0.0
    net_msgs = net_bytes = fn_invocations = 0.0

    def __init__(self, ctx: RuntimeContext, schema: Schema):
        self.ctx = ctx
        self.schema = schema

    def batches(self) -> Iterator[Batch]:
        """One execution of the subtree. While this operator's code
        runs — between being resumed and handing a batch up — the
        statement ledger's ``sink`` is this operator, so each charge
        lands on exactly one operator, in the order the ledger itself
        receives it."""
        ledger = self.ctx.ledger
        clock = perf_counter
        self.executions += 1
        caller = ledger.sink
        ledger.sink = self
        started = clock()
        for batch in self._batches():
            self.seconds += clock() - started
            self.batches_out += 1
            self.rows_out += batch.n
            ledger.sink = caller
            yield batch
            caller = ledger.sink
            ledger.sink = self
            started = clock()
        self.seconds += clock() - started
        ledger.sink = caller

    def _batches(self) -> Iterator[Batch]:
        raise NotImplementedError

    def rows(self) -> Iterator[Row]:
        """``batches()`` flattened into row tuples."""
        for batch in self.batches():
            yield from batch.rows()

    def to_list(self) -> List[Row]:
        out: List[Row] = []
        for batch in self.batches():
            out.extend(batch.rows())
        return out


class Actuals(NamedTuple):
    """One operator's numbers in a statement record — plain numbers, so
    the record keeps no operator, batch or build table alive."""

    executions: int
    batches: int
    rows: int
    seconds: float  # inclusive wall time
    kernel_batches: int
    fallback_batches: int
    page_reads: float
    page_writes: float
    tuple_cpu: float
    net_msgs: float
    net_bytes: float
    fn_invocations: float
    extras: Optional[dict]  # the operator's EXTRAS, when it has any


def actuals(operators: Sequence[Operator]) -> List[Actuals]:
    """Each operator's :class:`Actuals`, in the given order."""
    new = tuple.__new__  # Actuals(...) would cost a Python call each
    return [
        new(Actuals, (
            op.executions, op.batches_out, op.rows_out, op.seconds,
            op.kernel_batches, op.fallback_batches, op.page_reads,
            op.page_writes, op.tuple_cpu, op.net_msgs, op.net_bytes,
            op.fn_invocations,
            {name: getattr(op, name) for name in op.EXTRAS}
            if op.EXTRAS else None))
        for op in operators
    ]


def _sort_key(values: Sequence) -> tuple:
    """Total-order key tolerant of NULLs (None sorts first)."""
    return tuple((value is not None, value) for value in values)


# ------------------------------------------------------------------ leaves

class SeqScanOp(Operator):
    """Full table scan with an optional pushed-down predicate."""

    def __init__(self, ctx: RuntimeContext, table: Table, schema: Schema,
                 predicate: Optional[Expr] = None):
        super().__init__(ctx, schema)
        self.table = table
        self.predicate = predicate

    def _batches(self) -> Iterator[Batch]:
        self.ctx.charge_scan(self.table.num_pages)
        bind_memberships(self.predicate, self.ctx)
        predicate = compile_optional_filter(self.predicate,
                                            self)
        # the snapshot's rows straight off the columnar base, hidden
        # versions already masked out, so batches are cut over visible
        # ordinals; an empty table has no base
        store = self.table.columnar_view()
        if store is None:
            return
        for batch in batches_from_store(store):
            self.ctx.charge_cpu(batch.n)
            if predicate is not None:
                self.ctx.charge_cpu(batch.n)
                batch = batch.select(predicate(batch))
            if batch.n:
                yield batch


def _probe_data_pages(table: Table, column: str, matches: int) -> float:
    """Data pages touched by one index probe: contiguous when the table
    is clustered on the probed column, Yao-scattered otherwise."""
    if table.clustered_on == column:
        if matches == 0:
            return 0.0
        return pages_for(matches, table.schema.row_width())
    return yao_blocks(max(table.num_rows, 1), max(table.num_pages, 1),
                      matches)


class IndexScanOp(Operator):
    """Equality or range probe through a secondary index."""

    def __init__(self, ctx: RuntimeContext, table: Table, schema: Schema,
                 column: str, op: str, value,
                 residual: Optional[Expr] = None):
        super().__init__(ctx, schema)
        self.table = table
        self.column = column
        self.op = op
        self.value = value
        self.residual = residual

    def _positions(self) -> Sequence[int]:
        index = self.table.index_on(self.column)
        if index is None:
            raise ExecutionError(
                "no index on %s.%s" % (self.table.name, self.column)
            )
        # indexes map to physical positions; drop versions this
        # statement's MVCC snapshot cannot see (identity on a table
        # with no in-flight or unvacuumed versions)
        return self.table.visible_positions(
            index.search(self.op, self.value))

    def _batches(self) -> Iterator[Batch]:
        positions = self._positions()
        self.ctx.ledger.charge_reads(1.0 + _probe_data_pages(
            self.table, self.column, len(positions)))
        self.ctx.charge_cpu(len(positions) + 1)
        bind_memberships(self.residual, self.ctx)
        residual = compile_optional_filter(self.residual,
                                           self)
        if not positions:
            return
        for batch in Batch(self.table.take(positions),
                           len(positions)).chunks():
            if residual is not None:
                self.ctx.charge_cpu(batch.n)
                batch = batch.select(residual(batch))
            if batch.n:
                yield batch


class FilterSetScanOp(Operator):
    """Scan the run-time-bound filter set (magic set)."""

    def __init__(self, ctx: RuntimeContext, param_id: str, schema: Schema):
        super().__init__(ctx, schema)
        self.param_id = param_id

    def _batches(self) -> Iterator[Batch]:
        filter_set = self.ctx.filter_set(self.param_id)
        self.ctx.charge_rescan(filter_set)
        return filter_set.scan()


class ValuesOp(Operator):
    """A constant in-memory rowset (tests and utilities)."""

    def __init__(self, ctx: RuntimeContext, rows: List[Row], schema: Schema):
        super().__init__(ctx, schema)
        self._rows = rows

    def _batches(self) -> Iterator[Batch]:
        self.ctx.charge_cpu(len(self._rows))
        return batches_from_list(self._rows, len(self.schema))


# ------------------------------------------------------------- unary ops

class FilterOp(Operator):
    def __init__(self, ctx: RuntimeContext, child: Operator, predicate: Expr):
        super().__init__(ctx, child.schema)
        self.child = child
        self.predicate = predicate

    def _batches(self) -> Iterator[Batch]:
        bind_memberships(self.predicate, self.ctx)
        predicate = compile_optional_filter(self.predicate,
                                            self)
        for batch in self.child.batches():
            self.ctx.charge_cpu(batch.n)
            batch = batch.select(predicate(batch))
            if batch.n:
                yield batch


class ProjectOp(Operator):
    def __init__(self, ctx: RuntimeContext, child: Operator,
                 exprs: Sequence[Expr], schema: Schema):
        super().__init__(ctx, schema)
        self.child = child
        self.exprs = list(exprs)

    def _batches(self) -> Iterator[Batch]:
        for expr in self.exprs:
            bind_memberships(expr, self.ctx)
        fns = [compile_expr(expr, self) for expr in self.exprs]
        for batch in self.child.batches():
            self.ctx.charge_cpu(batch.n)
            yield Batch([fn(batch) for fn in fns], batch.n)


class DistinctOp(Operator):
    def __init__(self, ctx: RuntimeContext, child: Operator):
        super().__init__(ctx, child.schema)
        self.child = child

    def _batches(self) -> Iterator[Batch]:
        seen = set()
        width = self.schema.row_width()
        held = 0.0
        try:
            for batch in self.child.batches():
                self.ctx.charge_cpu(batch.n)
                keep = []
                for i, row in enumerate(batch.rows()):
                    if row not in seen:
                        seen.add(row)
                        if not (len(seen) & _MEM_CHUNK_MASK):
                            self.ctx.mem_acquire(_MEM_CHUNK_ROWS * width)
                            held += _MEM_CHUNK_ROWS * width
                        keep.append(i)
                if len(keep) == batch.n:
                    yield batch
                elif keep:
                    yield batch.take(keep)
        finally:
            self.ctx.mem_release(held)


class SortOp(Operator):
    """Full sort; charges external-merge I/O when the input spills."""

    def __init__(self, ctx: RuntimeContext, child: Operator,
                 keys: Sequence[Tuple[int, bool]]):
        super().__init__(ctx, child.schema)
        self.child = child
        self.keys = list(keys)

    def _sort(self, data: List[Row]) -> None:
        """Charge the sort and order ``data`` in place."""
        n = len(data)
        if n > 1:
            self.ctx.charge_cpu(n * math.log2(n))
        sort_pages = pages_for(n, self.schema.row_width())
        if not self.ctx.fits(sort_pages):
            fan_in = max(2, self.ctx.memory_pages - 1)
            runs = sort_pages / self.ctx.memory_pages
            passes = max(1, math.ceil(math.log(max(runs, 2), fan_in)))
            self.ctx.ledger.charge_writes(sort_pages * passes)
            self.ctx.ledger.charge_reads(sort_pages * passes)
        for position, ascending in reversed(self.keys):
            data.sort(
                key=lambda row: _sort_key((row[position],)),
                reverse=not ascending,
            )

    def _batches(self) -> Iterator[Batch]:
        data = self.child.to_list()
        n = len(data)
        width = self.schema.row_width()
        self.ctx.mem_acquire(n * width)
        try:
            self._sort(data)
            for batch in batches_from_list(data, len(self.schema)):
                yield batch
        finally:
            self.ctx.mem_release(n * width)


class LimitOp(Operator):
    def __init__(self, ctx: RuntimeContext, child: Operator, limit: int):
        super().__init__(ctx, child.schema)
        self.child = child
        self.limit = limit

    def _batches(self) -> Iterator[Batch]:
        # Batch granularity: a *streaming* child has charged for the
        # whole batch the limit cuts, up to one batch's worth of rows
        # beyond the limit (blocking children — sorts, aggregates —
        # have already done all their work). See docs/execution.md.
        remaining = self.limit
        if remaining <= 0:
            return
        for batch in self.child.batches():
            if batch.n >= remaining:
                yield batch.head(remaining)
                return
            remaining -= batch.n
            yield batch


def _fold_by(index, values, size: int, kind: str):
    """``values`` reduced per slot of ``index`` (``size`` slots) with
    unbuffered ``ufunc.at``: exact int64 sums, or min / max."""
    out = _np.zeros(size, dtype=values.dtype)
    if kind == "sum":
        _np.add.at(out, index, values)
    else:
        out[index] = values  # seed every slot with one of its values
        (_np.minimum if kind == "min" else _np.maximum).at(
            out, index, values)
    return out


class _Partials:
    """An :class:`AggregateOp`'s per-batch numpy partials awaiting one
    fold into the groups' :class:`Accumulator` objects: per batch and
    aggregate, the batch groups' numbers, non-NULL counts, and reduced
    values (int sum, min or max; ``None`` for COUNT)."""

    SLACK = 1 << 16  # queued entries allowed beyond the group count

    def __init__(self, aggregates):
        self.kinds = [{"avg": "sum"}.get(spec.function, spec.function)
                      for spec, _ in aggregates]  # count/sum/min/max
        self.queued = []        # per batch: (numbers, parts)
        self.size = 0           # batch-group entries queued
        self.signature = None   # per aggregate: (dtype, sort table)
        self.bounds = None      # per aggregate: bound on |queued sum|

    def add(self, numbers, parts, accs) -> None:
        """Queue one batch: ``parts`` holds ``(counts, values, by_rank,
        bound)`` per aggregate, indexed like ``numbers``. Flushes first
        when the values are not comparable with the queued ones (another
        dtype or string sort table), their sums could leave int64, or
        the queue would outgrow the groups by more than ``SLACK``."""
        if self.queued and (
                self.size + len(numbers) > len(accs) + self.SLACK
                or any(dtype != (None if values is None else values.dtype)
                       or by_rank is not table
                       for (dtype, by_rank), (_, values, table, _)
                       in zip(self.signature, parts))
                or any(total + part[3] >= columnar.INT64_SAFE
                       for total, part in zip(self.bounds, parts))):
            self.flush(accs)
        if not self.queued:
            self.signature = [(None if values is None else values.dtype,
                               by_rank) for _, values, by_rank, _ in parts]
            self.bounds = [0] * len(parts)
        for j, part in enumerate(parts):
            self.bounds[j] += part[3]
        self.queued.append((numbers, parts))
        self.size += len(numbers)

    def flush(self, accs) -> None:
        """Fold the queued partials into ``accs`` (group number -> its
        Accumulators): one numpy reduction by group number per
        aggregate, then one :meth:`Accumulator.fold` per group."""
        queued, self.queued, self.size = self.queued, [], 0
        if not queued:
            return
        numbers = _np.concatenate([numbers for numbers, _ in queued])
        for j, kind in enumerate(self.kinds):
            counts = _np.concatenate([parts[j][0] for _, parts in queued])
            totals = _fold_by(numbers, counts, len(accs), "sum")
            touched = _np.flatnonzero(totals)
            values = [None] * len(touched)
            if kind != "count":
                live = counts > 0  # a batch's other slots hold no value
                values = _fold_by(numbers[live], _np.concatenate(
                    [parts[j][1] for _, parts in queued])[live],
                    len(accs), kind)[touched].tolist()
                by_rank = self.signature[j][1]
                if by_rank is not None:
                    values = [by_rank[rank] for rank in values]
            for number, count, value in zip(touched.tolist(),
                                             totals[touched].tolist(),
                                             values):
                accs[number][j].fold(count, value)


class AggregateOp(Operator):
    """Hash aggregation. With no GROUP BY columns, produces exactly one
    row (SQL scalar-aggregate semantics)."""

    def __init__(self, ctx: RuntimeContext, child: Operator,
                 group_positions: Sequence[int],
                 aggregates: Sequence[Tuple[AggregateSpec, Optional[Expr]]],
                 schema: Schema):
        super().__init__(ctx, schema)
        self.child = child
        self.group_positions = list(group_positions)
        self.aggregates = list(aggregates)  # (spec, resolved argument)

    def _batches(self) -> Iterator[Batch]:
        groups = {}  # group key -> group number, first-occurrence order
        accs = []    # group number -> its Accumulators
        partials = _Partials(self.aggregates)
        width = self.schema.row_width()
        held = 0.0
        for spec, argument in self.aggregates:
            bind_memberships(argument, self.ctx)
        arg_fns = [
            None if argument is None
            else compile_expr(argument, self)
            for _, argument in self.aggregates
        ]
        single_agg = (len(arg_fns) == 1)
        get = groups.get

        def register(key):
            nonlocal held
            number = len(accs)
            groups[key] = number
            accs.append([
                Accumulator.for_spec(spec) for spec, _ in self.aggregates
            ])
            if not (len(accs) & _MEM_CHUNK_MASK):
                self.ctx.mem_acquire(_MEM_CHUNK_ROWS * width)
                held += _MEM_CHUNK_ROWS * width
            return number

        try:
            for batch in self.child.batches():
                self.ctx.charge_cpu(batch.n)
                arg_values = [
                    None if fn is None else fn(batch) for fn in arg_fns
                ]
                if self._consume_columnar(batch, arg_values, groups,
                                          register, partials, accs):
                    continue
                partials.flush(accs)
                key_columns = [batch.column(p)
                               for p in self.group_positions]
                keys = (list(zip(*key_columns)) if key_columns
                        else [()] * batch.n)
                arg_columns = [
                    [None] * batch.n if v is None else v
                    for v in arg_values
                ]
                if single_agg:
                    # one accumulator per group: skip the inner zip
                    for key, value in zip(keys, arg_columns[0]):
                        number = get(key)
                        if number is None:
                            number = register(key)
                        accs[number][0].add(value)
                    continue
                for i, key in enumerate(keys):
                    number = get(key)
                    if number is None:
                        number = register(key)
                    for column, accumulator in zip(arg_columns,
                                                   accs[number]):
                        accumulator.add(column[i])
            partials.flush(accs)
            if not groups and not self.group_positions and self.aggregates:
                register(())
            if groups:
                self.ctx.charge_cpu(len(groups))
            out = [
                key + tuple(a.result() for a in accs[number])
                for key, number in groups.items()
            ]
            for batch in batches_from_list(out, len(self.schema)):
                yield batch
        finally:
            self.ctx.mem_release(held)

    def _consume_columnar(self, batch: Batch, arg_values, groups,
                          register, partials: "_Partials", accs) -> bool:
        """Fold one columnar batch into numpy partials: factorize the
        key columns, reduce every aggregate per batch group (count,
        exact int sum, min, max), and queue those arrays on
        ``partials`` under the groups' numbers. Python work per batch is
        one dictionary probe per batch group; the :class:`Accumulator`
        updates wait for :meth:`_Partials.flush`. New groups register in
        first-occurrence order, as the row path registers them, so group
        order and memory-chunk accounting are the same.

        Returns False — before touching any state — whenever exact
        replication isn't possible wholesale (row-backed batch, DISTINCT,
        float SUM/AVG whose result depends on accumulation order, float
        group keys, overflow-risky int sums); the caller then flushes
        the partials and runs the per-row path on this batch.
        """
        n = batch.n
        key_cols = []
        for p in self.group_positions:
            col = batch.column(p)
            if not isinstance(col, ColumnVector) or (
                    col.dictionary is None
                    and col.values.dtype == _np.float64):
                return False
            key_cols.append(col)
        for kind, (spec, _), values in zip(partials.kinds, self.aggregates,
                                           arg_values):
            if spec.distinct:
                return False
            if values is None:  # COUNT(*)
                continue
            if not isinstance(values, ColumnVector) or (
                    kind == "sum" and (
                        values.dictionary is not None
                        or values.values.dtype not in (_np.int64,
                                                       _np.bool_))):
                # float sums are order-dependent; strings raise — both
                # replicate exactly only on the per-row path
                return False

        # ---- factorize group keys (first occurrence order) ----
        # Small key domains (dictionary codes, narrow int ranges — the
        # overwhelmingly common GROUP BY shapes) factorize sort-free:
        # pack the per-column codes into one combined code and bincount
        # it. Wide domains fall back to np.unique.
        factored = self._factorize_small(key_cols, n) if key_cols \
            else None
        if factored is not None:
            first_idx, inverse, counts_all = factored
            k = len(first_idx)
        elif key_cols:
            enc = []
            for col in key_cols:
                part = col.values.astype(_np.int64)
                if col.mask is not None:
                    if col.dictionary is not None:
                        part = _np.where(col.mask, part, -1)
                    else:
                        enc.append((~col.mask).astype(_np.int64))
                enc.append(part)
            if len(enc) == 1:
                _, first_idx, inverse = _np.unique(
                    enc[0], return_index=True, return_inverse=True)
            else:
                key_mat = _np.column_stack(enc)
                _, first_idx, inverse = _np.unique(
                    key_mat, axis=0, return_index=True,
                    return_inverse=True)
            inverse = inverse.reshape(-1)
            k = len(first_idx)
            counts_all = _np.bincount(inverse, minlength=k)
        else:
            inverse = _np.zeros(n, dtype=_np.int64)
            first_idx = _np.zeros(1, dtype=_np.int64)
            k = 1
            counts_all = _np.bincount(inverse, minlength=k)

        # ---- reduce each aggregate per batch group; nothing is
        # mutated yet. Per aggregate: (non-NULL counts, reduced values
        # or None, sort table of string ranks or None, bound on any
        # |group sum|) ----
        parts = []
        for kind, values in zip(partials.kinds, arg_values):
            if values is None:  # COUNT(*)
                parts.append((counts_all, None, None, 0))
                continue
            if values.mask is None:
                vidx, vvals, per_counts = (
                    inverse, values.values, counts_all)
            else:
                sel = values.mask
                vidx = inverse[sel]
                vvals = values.values[sel]
                per_counts = _np.bincount(vidx, minlength=k)
            if kind == "count":
                parts.append((per_counts, None, None, 0))
                continue
            by_rank, bound = None, 0
            if kind == "sum":
                if vvals.dtype == _np.bool_:
                    vvals = vvals.astype(_np.int64)
                if len(vvals):
                    bound = max(abs(int(vvals.min())),
                                abs(int(vvals.max()))) * \
                        max(1, int(per_counts.max()))
                    if bound >= columnar.INT64_SAFE:
                        return False  # per-row path sums unbounded ints
            elif values.dictionary is not None:
                # compare strings by rank; the ranks map back at flush
                vvals = values.dictionary.sort_ranks()[vvals]
                by_rank = values.dictionary.sorted_entries()
            parts.append((per_counts, _fold_by(vidx, vvals, k, kind),
                          by_rank, bound))

        # ---- number the batch's groups; new ones register in
        # first-occurrence order ----
        keys = (list(zip(*[col.take(first_idx).tolist()
                           for col in key_cols]))
                if key_cols else [()] * k)
        numbers = list(map(groups.get, keys))
        new = [local for local, number in enumerate(numbers)
               if number is None]
        for local in sorted(new, key=first_idx.__getitem__):
            numbers[local] = register(keys[local])
        partials.add(_np.array(numbers, dtype=_np.int64), parts, accs)
        return True

    def _factorize_small(self, key_cols, n):
        """Sort-free factorization for small combined key domains.

        Each key column maps to a dense non-negative code (NULL takes
        slot 0) and the per-column codes pack into one combined code by
        mixed-radix arithmetic. A single bincount then yields group
        counts, first-occurrence row indices, and the inverse mapping —
        no O(n log n) sort, unlike ``np.unique``. Returns
        ``(first_idx, inverse, counts_all)`` with groups ordered by
        combined code, or None when any column (or the product of
        domains) exceeds ``SMALL_DOMAIN``, in which case the caller
        falls back to ``np.unique``.
        """
        domain = 1
        combined = None
        for col in key_cols:
            if col.dictionary is not None:
                d = len(col.dictionary.entries) + 1
                if d > SMALL_DOMAIN:
                    return None
                e = col.values.astype(_np.int64) + 1
            elif col.values.dtype == _np.bool_:
                d = 3
                e = col.values.astype(_np.int64) + 1
            else:
                vals = col.values
                lo = int(vals.min()) if n else 0
                hi = int(vals.max()) if n else 0
                d = hi - lo + 2
                if d > SMALL_DOMAIN:
                    return None
                e = (vals - lo) + 1
            if col.mask is not None:
                e = _np.where(col.mask, e, 0)
            domain *= d
            if domain > SMALL_DOMAIN:
                return None
            combined = e if combined is None else combined * d + e
        counts_dom = _np.bincount(combined, minlength=domain)
        present = _np.flatnonzero(counts_dom)
        first = _np.empty(domain, dtype=_np.int64)
        first[combined[::-1]] = _np.arange(n - 1, -1, -1)
        remap = _np.empty(domain, dtype=_np.int64)
        remap[present] = _np.arange(len(present))
        return first[present], remap[combined], counts_dom[present]


class MaterializeOp(Operator):
    """Materialize the child into a temp each time it is consumed."""

    def __init__(self, ctx: RuntimeContext, child: Operator):
        super().__init__(ctx, child.schema)
        self.child = child

    def _batches(self) -> Iterator[Batch]:
        data = self.child.to_list()
        self.ctx.charge_materialize(len(data), self.schema.row_width())
        nbytes = len(data) * self.schema.row_width()
        self.ctx.mem_acquire(nbytes)
        try:
            for batch in batches_from_list(data, len(self.schema)):
                yield batch
        finally:
            self.ctx.mem_release(nbytes)


class RelabelOp(Operator):
    """Pass rows through under a renamed schema."""

    def __init__(self, ctx: RuntimeContext, child: Operator, schema: Schema):
        super().__init__(ctx, schema)
        self.child = child

    def _batches(self) -> Iterator[Batch]:
        return self.child.batches()


class ShipOp(Operator):
    """Move rows between sites, charging messages and bytes.

    With a simulated network installed on the context, the shipment is
    subject to fault injection (drops, truncation, latency, site-down)
    and the retry policy; ``from_site``/``to_site`` identify the link.
    """

    def __init__(self, ctx: RuntimeContext, child: Operator,
                 from_site: Optional[str] = None,
                 to_site: Optional[str] = None):
        super().__init__(ctx, child.schema)
        self.child = child
        self.from_site = from_site
        self.to_site = to_site

    def _batches(self) -> Iterator[Batch]:
        # the child is drained fully before transferring, so the
        # simulated network sees one transfer of the whole result
        data = self.child.to_list()
        self.ctx.charge_ship(len(data), self.schema.row_width(),
                             from_site=self.from_site,
                             to_site=self.to_site)
        return batches_from_list(data, len(self.schema))


class UnionOp(Operator):
    """Concatenate children; optionally de-duplicate the whole output."""

    def __init__(self, ctx: RuntimeContext, left: Operator, right: Operator,
                 schema: Schema, distinct: bool):
        super().__init__(ctx, schema)
        self.left = left
        self.right = right
        self.distinct = distinct

    def _batches(self) -> Iterator[Batch]:
        seen = set() if self.distinct else None
        width = self.schema.row_width()
        held = 0.0
        try:
            for source in (self.left, self.right):
                for batch in source.batches():
                    self.ctx.charge_cpu(batch.n)
                    if seen is None:
                        yield batch
                        continue
                    keep = []
                    for i, row in enumerate(batch.rows()):
                        if row in seen:
                            continue
                        seen.add(row)
                        if not (len(seen) & _MEM_CHUNK_MASK):
                            self.ctx.mem_acquire(_MEM_CHUNK_ROWS * width)
                            held += _MEM_CHUNK_ROWS * width
                        keep.append(i)
                    if len(keep) == batch.n:
                        yield batch
                    elif keep:
                        yield batch.take(keep)
        finally:
            self.ctx.mem_release(held)


class FixpointOp(Operator):
    """Semi-naive fixpoint of a recursive relation.

    The base child seeds the result and the first delta; each pass binds
    the delta to ``delta_param`` (the template's FilterSetScanOp leaf)
    and re-runs the template, so the recursive branch only ever joins
    against rows discovered in the previous pass. With ``distinct``
    (UNION) only genuinely new rows enter the next delta, which
    guarantees termination; without it (UNION ALL) every produced row
    does, and ``ctx.max_fixpoint_iterations`` guards cyclic data.
    """

    def __init__(self, ctx: RuntimeContext, base: Operator,
                 template: Operator, delta_param: str, schema: Schema,
                 distinct: bool):
        super().__init__(ctx, schema)
        self.base = base
        self.template = template
        self.delta_param = delta_param
        self.distinct = distinct

    def _batches(self) -> Iterator[Batch]:
        width = self.schema.row_width()
        limit = self.ctx.max_fixpoint_iterations
        held = 0.0
        seen = set() if self.distinct else None
        out: List[Row] = []

        def absorb(rows: List[Row]) -> List[Row]:
            """Add ``rows`` to the result; returns the next delta (under
            UNION, only the rows not seen before)."""
            nonlocal held
            delta: List[Row] = []
            for row in rows:
                self.ctx.charge_cpu(1)
                if seen is not None:
                    if row in seen:
                        continue
                    seen.add(row)
                out.append(row)
                delta.append(row)
                if not (len(out) & _MEM_CHUNK_MASK):
                    self.ctx.mem_acquire(_MEM_CHUNK_ROWS * width)
                    held += _MEM_CHUNK_ROWS * width
            return delta

        try:
            delta = absorb(self.base.to_list())
            iterations = 0
            while delta:
                if limit is not None and iterations >= limit:
                    raise FixpointLimitExceeded(
                        "fixpoint did not converge within %d iterations "
                        "(the last delta still holds %d rows); raise "
                        "Options.max_fixpoint_iterations or use UNION "
                        "instead of UNION ALL" % (limit, len(delta)),
                        iterations=iterations, limit=limit,
                    )
                iterations += 1
                temp_pages = self.ctx.charge_materialize(len(delta), width)
                self.ctx.bind_filter_set(self.delta_param, FilterSet(
                    self.schema, rows=delta,
                    spilled=not self.ctx.fits(temp_pages)))
                delta = absorb(self.template.to_list())
            yield from batches_from_list(out, len(self.schema))
        finally:
            self.ctx.mem_release(held)


# -------------------------------------------------------------- join ops

def _null_free(key: tuple) -> bool:
    return all(value is not None for value in key)


class HashJoinOp(Operator):
    """Hash join: build on the inner, probe with the outer."""

    def __init__(self, ctx: RuntimeContext, outer: Operator, inner: Operator,
                 outer_positions: Sequence[int],
                 inner_positions: Sequence[int],
                 residual: Optional[Expr], schema: Schema,
                 semi: bool = False):
        super().__init__(ctx, schema)
        self.outer = outer
        self.inner = inner
        self.outer_positions = list(outer_positions)
        self.inner_positions = list(inner_positions)
        self.residual = residual
        self.semi = semi

    def _batches(self) -> Iterator[Batch]:
        bind_memberships(self.residual, self.ctx)
        residual = compile_optional_filter(self.residual, self)
        build_rows = 0
        build_width = self.inner.schema.row_width()
        held = 0.0
        try:
            build_batches = []
            for batch in self.inner.batches():
                self.ctx.charge_cpu(batch.n)
                # working memory is acquired every 1024 build rows:
                # one acquisition per chunk boundary this batch crosses
                crossings = ((build_rows + batch.n) // _MEM_CHUNK_ROWS
                             - build_rows // _MEM_CHUNK_ROWS)
                build_rows += batch.n
                for _ in range(crossings):
                    self.ctx.mem_acquire(_MEM_CHUNK_ROWS * build_width)
                    held += _MEM_CHUNK_ROWS * build_width
                build_batches.append(batch)
            tail = (build_rows & _MEM_CHUNK_MASK) * build_width
            self.ctx.mem_acquire(tail)
            held += tail
            build_pages = pages_for(build_rows, build_width)
            build = _HashBuild(build_batches, self.outer_positions,
                               self.inner_positions,
                               len(self.inner.schema), self.semi)
            probe_rows = 0
            for batch in self.outer.batches():
                self.ctx.charge_cpu(batch.n)
                probe_rows += batch.n
                result, pairs = build.probe(batch, self)
                self.ctx.charge_cpu(pairs)
                if result is None:
                    continue
                if residual is not None and not self.semi:
                    result = result.select(residual(result))
                if result.n:
                    yield result
            if not self.ctx.fits(build_pages):
                probe_pages = pages_for(probe_rows,
                                        self.outer.schema.row_width())
                self.ctx.ledger.charge_writes(build_pages + probe_pages)
                self.ctx.ledger.charge_reads(build_pages + probe_pages)
        finally:
            self.ctx.mem_release(held)


class _HashBuild:
    """The collected build side of an equi-join and its batch probe —
    what :class:`HashJoinOp` and the final join of :class:`FilterJoinOp`
    share.

    Single-column keys (the common case) whose build columns arrived
    columnar end-to-end probe sorted key arrays; anything else (semi
    joins, multi-column keys, row-backed batches) builds a bucket
    table, at most once."""

    def __init__(self, build_batches: List[Batch],
                 outer_positions: Sequence[int],
                 inner_positions: Sequence[int], inner_width: int,
                 semi: bool = False):
        self.build_batches = build_batches
        self.outer_positions = outer_positions
        self.inner_positions = inner_positions
        self.inner_width = inner_width
        self.semi = semi
        # bare-value bucket keys: no per-row tuple allocation, and the
        # null check is an identity test instead of a call
        self.single = (len(inner_positions) == 1)
        self.emitted_inner = set() if semi else None
        self.vec = (self._vector_build()
                    if self.single and not semi else None)
        self.table = None if self.vec is not None \
            else self._bucket_table()

    def probe(self, batch: Batch, counter: "Operator"
              ) -> Tuple[Optional[Batch], int]:
        """(joined batch or None when nothing matched, pair count) for
        one probe batch: outer order, build order within a key.
        ``counter`` counts whether the batch probed the sorted arrays
        (a kernel batch) or fell to the per-row bucket path."""
        if self.vec is not None:
            probe_key = batch.column(self.outer_positions[0])
            if isinstance(probe_key, ColumnVector):
                result, pairs = self._vector_probe(batch, probe_key)
                if pairs >= 0:
                    counter.kernel_batches += 1
                    return result, pairs
            # probe batch incompatible with the sorted arrays: fall
            # back to buckets for it (built only once)
            if self.table is None:
                self.table = self._bucket_table()
        counter.fallback_batches += 1
        out, pairs = self._probe_batch_rows(batch)
        if not out:
            return None, pairs
        width = self.inner_width if self.semi \
            else batch.width + self.inner_width
        return Batch.from_rows(out, width), pairs

    def _bucket_table(self) -> dict:
        """key -> build rows in build order, over the collected build
        batches."""
        table = {}
        setdefault = table.setdefault
        for batch in self.build_batches:
            rows = batch.rows()
            if self.single:
                for key, row in zip(
                        batch.column(self.inner_positions[0]), rows):
                    if key is not None:
                        setdefault(key, []).append(row)
            else:
                key_columns = [batch.column(p)
                               for p in self.inner_positions]
                keys = (zip(*key_columns) if key_columns
                        else [()] * batch.n)
                for key, row in zip(keys, rows):
                    if _null_free(key):
                        setdefault(key, []).append(row)
        return table

    def _probe_batch_rows(self, batch):
        """One probe batch against the bucket table (the per-row path);
        returns (output rows, pair count)."""
        get = self.table.get
        single = self.single
        if single:
            keys = batch.column(self.outer_positions[0])
        else:
            key_columns = [batch.column(p)
                           for p in self.outer_positions]
            keys = (list(zip(*key_columns)) if key_columns
                    else [()] * batch.n)
        rows = batch.rows()
        out: List[Row] = []
        append = out.append
        pairs = 0
        if self.semi:
            emitted_inner = self.emitted_inner
            seen_add = emitted_inner.add
            for key in keys:
                if key is None or (not single
                                   and not _null_free(key)):
                    continue
                bucket = get(key)
                if not bucket:
                    continue
                pairs += len(bucket)
                for inner_row in bucket:
                    if id(inner_row) not in emitted_inner:
                        seen_add(id(inner_row))
                        append(inner_row)
        else:
            for outer_row, key in zip(rows, keys):
                if key is None or (not single
                                   and not _null_free(key)):
                    continue
                bucket = get(key)
                if not bucket:
                    continue
                pairs += len(bucket)
                for inner_row in bucket:
                    append(outer_row + inner_row)
        return out, pairs

    def _vector_build(self):
        """Sorted-key arrays over the build side for binary-search
        probing. Returns None unless every build batch's key column is a
        ColumnVector of one consistent kind (int64/bool, float64, or
        codes of one shared dictionary); bucket insertion order — build
        position ascending — is preserved by the stable sort, so probe
        emission order matches the bucket path exactly."""
        build_batches = self.build_batches
        pos = self.inner_positions[0]
        parts = [b.column(pos) for b in build_batches]
        if not all(isinstance(p, ColumnVector) for p in parts):
            return None
        if parts:
            first = parts[0]
            if first.dictionary is not None:
                if any(p.dictionary is not first.dictionary
                       for p in parts):
                    return None
                keyvals = _np.concatenate(
                    [p.values.astype(_np.int64) for p in parts])
                kind = first.dictionary
            else:
                if any(p.dictionary is not None for p in parts):
                    return None
                dtypes = {str(p.values.dtype) for p in parts}
                if dtypes <= {"int64", "bool"}:
                    keyvals = _np.concatenate(
                        [p.values.astype(_np.int64) for p in parts])
                    kind = "int"
                elif dtypes == {"float64"}:
                    # NaN never encodes into a ColumnVector, so float
                    # keys compare identically to dict hashing
                    keyvals = _np.concatenate(
                        [p.values for p in parts])
                    kind = "float"
                else:
                    return None
            if any(p.mask is not None for p in parts):
                valid = _np.concatenate([p.valid_mask() for p in parts])
            else:
                valid = None
        else:
            keyvals = _np.empty(0, dtype=_np.int64)
            valid = None
            kind = "int"
        positions = _np.arange(len(keyvals))
        if valid is not None:
            positions = positions[valid]
            keyvals = keyvals[valid]
        order = _np.argsort(keyvals, kind="stable")
        sorted_keys = keyvals[order]
        sorted_pos = positions[order]
        unique = bool(sorted_keys.size < 2 or
                      (sorted_keys[1:] != sorted_keys[:-1]).all())
        # small unique int domains (surrogate keys, dictionary codes)
        # get a dense position lookup table: probing is then one fancy
        # index instead of a binary search per batch
        lut = None
        lut_lo = 0
        if unique and sorted_keys.size and \
                sorted_keys.dtype == _np.int64:
            lut_lo = int(sorted_keys[0])
            span = int(sorted_keys[-1]) - lut_lo + 1
            if span <= max(SMALL_DOMAIN, 4 * sorted_keys.size):
                lut = _np.zeros(span, dtype=_np.int64)
                lut[sorted_keys - lut_lo] = sorted_pos + 1  # 0 = absent
        inner_columns = [
            columnar.concat_columns([b.column(j) for b in build_batches])
            for j in range(self.inner_width)
        ]
        return {
            "keys": sorted_keys,
            "pos": sorted_pos,
            "kind": kind,
            "unique": unique,
            "lut": lut,
            "lut_lo": lut_lo,
            "columns": inner_columns,
            "trans": {},  # per-probe-dictionary code translations
        }

    def _vector_probe(self, batch, probe_key):
        """One columnar probe batch against the sorted build arrays;
        returns (result batch or None, pair count), or (None, -1) when
        this batch's key column is incompatible with the build kind."""
        vec = self.vec
        kind = vec["kind"]
        values = probe_key.values
        if probe_key.dictionary is not None:
            if not isinstance(kind, columnar.StringDictionary):
                return None, -1
            if probe_key.dictionary is kind:
                vals = values.astype(_np.int64)
            else:
                trans = vec["trans"].get(id(probe_key.dictionary))
                if trans is None:
                    entries = probe_key.dictionary.entries
                    trans = (_np.fromiter(
                        (kind.lookup(e) for e in entries),
                        dtype=_np.int64, count=len(entries))
                        if entries else _np.empty(0, dtype=_np.int64))
                    vec["trans"][id(probe_key.dictionary)] = trans
                vals = (trans[values] if len(trans)
                        else _np.full(len(values), -1, dtype=_np.int64))
        elif kind == "int":
            if values.dtype != _np.int64 and values.dtype != _np.bool_:
                return None, -1
            vals = values.astype(_np.int64)
        elif kind == "float":
            if values.dtype != _np.float64:
                return None, -1
            vals = values
        else:
            return None, -1
        sorted_keys = vec["keys"]
        m = sorted_keys.size
        lut = vec["lut"]
        if lut is not None and vals.dtype == _np.int64:
            idx = vals - vec["lut_lo"]
            in_range = (idx >= 0) & (idx < lut.size)
            slot = lut[_np.where(in_range, idx, 0)]
            found = in_range & (slot > 0)
            if probe_key.mask is not None:
                found &= probe_key.mask
            pairs = int(_np.count_nonzero(found))
            if pairs == 0:
                return None, 0
            probe_idx = _np.flatnonzero(found)
            build_pos = slot[found] - 1
        elif vec["unique"]:
            # at most one match per probe row: a single binary search
            # plus an equality check replaces the repeat/cumsum expansion
            lo = _np.searchsorted(sorted_keys, vals, side="left")
            if m:
                found = sorted_keys[_np.minimum(lo, m - 1)] == vals
                found &= lo < m
            else:
                found = _np.zeros(len(vals), dtype=bool)
            if probe_key.mask is not None:
                found &= probe_key.mask
            pairs = int(_np.count_nonzero(found))
            if pairs == 0:
                return None, 0
            probe_idx = _np.flatnonzero(found)
            build_pos = vec["pos"][lo[found]]
        else:
            lo = _np.searchsorted(sorted_keys, vals, side="left")
            hi = _np.searchsorted(sorted_keys, vals, side="right")
            counts = hi - lo
            if probe_key.mask is not None:
                counts = _np.where(probe_key.mask, counts, 0)
            pairs = int(counts.sum())
            if pairs == 0:
                return None, 0
            # expand each probe row into its matches: ascending build
            # position within a key = bucket insertion order
            probe_idx = _np.repeat(_np.arange(batch.n), counts)
            starts = _np.repeat(lo, counts)
            offsets = _np.arange(pairs) - _np.repeat(
                _np.cumsum(counts) - counts, counts)
            build_pos = vec["pos"][starts + offsets]
        outer_columns = [
            (c.take(probe_idx) if isinstance(c, ColumnVector)
             else [c[i] for i in probe_idx])
            for c in (batch.columns if batch.width else [])
        ]
        inner_columns = [
            (c.take(build_pos) if isinstance(c, ColumnVector)
             else [c[i] for i in build_pos])
            for c in vec["columns"]
        ]
        return Batch(outer_columns + inner_columns, pairs), pairs


class MergeJoinOp(Operator):
    """Merge join over inputs already sorted on the join keys."""

    def __init__(self, ctx: RuntimeContext, outer: Operator, inner: Operator,
                 outer_positions: Sequence[int],
                 inner_positions: Sequence[int],
                 residual: Optional[Expr], schema: Schema):
        super().__init__(ctx, schema)
        self.outer = outer
        self.inner = inner
        self.outer_positions = list(outer_positions)
        self.inner_positions = list(inner_positions)
        self.residual = residual

    def _batches(self) -> Iterator[Batch]:
        return batches_from_rows(self._merge(), len(self.schema))

    def _merge(self) -> Iterator[Row]:
        bind_memberships(self.residual, self.ctx)
        left = self.outer.to_list()
        right = self.inner.to_list()
        held = (len(left) * self.outer.schema.row_width()
                + len(right) * self.inner.schema.row_width())
        self.ctx.mem_acquire(held)
        self.ctx.charge_cpu(len(left) + len(right))
        lkey = lambda row: _sort_key(
            tuple(row[p] for p in self.outer_positions))
        rkey = lambda row: _sort_key(
            tuple(row[p] for p in self.inner_positions))
        try:
            i = j = 0
            while i < len(left) and j < len(right):
                lval = tuple(left[i][p] for p in self.outer_positions)
                rval = tuple(right[j][p] for p in self.inner_positions)
                if not _null_free(lval):
                    i += 1
                    continue
                if not _null_free(rval):
                    j += 1
                    continue
                if lkey(left[i]) < rkey(right[j]):
                    i += 1
                elif lkey(left[i]) > rkey(right[j]):
                    j += 1
                else:
                    # gather the equal-key groups on both sides
                    i2 = i
                    while i2 < len(left) and tuple(
                        left[i2][p] for p in self.outer_positions
                    ) == lval:
                        i2 += 1
                    j2 = j
                    while j2 < len(right) and tuple(
                        right[j2][p] for p in self.inner_positions
                    ) == rval:
                        j2 += 1
                    for a in range(i, i2):
                        for b in range(j, j2):
                            self.ctx.charge_cpu(1)
                            combined = left[a] + right[b]
                            if self.residual is not None and \
                                    self.residual.eval(combined) is not True:
                                continue
                            yield combined
                    i, j = i2, j2
        finally:
            self.ctx.mem_release(held)


class BlockNLJoinOp(Operator):
    """Block nested loops over a materialized inner."""

    def __init__(self, ctx: RuntimeContext, outer: Operator, inner: Operator,
                 outer_positions: Sequence[int],
                 inner_positions: Sequence[int],
                 residual: Optional[Expr], schema: Schema):
        super().__init__(ctx, schema)
        self.outer = outer
        self.inner = inner
        self.outer_positions = list(outer_positions)
        self.inner_positions = list(inner_positions)
        self.residual = residual

    def _batches(self) -> Iterator[Batch]:
        return batches_from_rows(self._loop(), len(self.schema))

    def _loop(self) -> Iterator[Row]:
        bind_memberships(self.residual, self.ctx)
        inner_rows = self.inner.to_list()
        inner_held = len(inner_rows) * self.inner.schema.row_width()
        self.ctx.mem_acquire(inner_held)
        inner_pages = pages_for(len(inner_rows),
                                self.inner.schema.row_width())
        inner_spilled = not self.ctx.fits(inner_pages)
        outer_width = self.outer.schema.row_width()
        block_pages = max(1, self.ctx.memory_pages - 2)
        rows_per_block = max(
            1, int(block_pages * max(1, 4096 // max(1, outer_width)))
        )
        block: List[Row] = []

        # When the join is (partly) equi, matches can be located through a
        # hash table without changing the *charged* cost: nested loops
        # still pays one CPU step per (outer, inner) pair. This keeps the
        # simulator honest while avoiding Python-level quadratic time.
        inner_index = None
        if self.inner_positions:
            inner_index = {}
            for inner_row in inner_rows:
                key = tuple(inner_row[p] for p in self.inner_positions)
                if _null_free(key):
                    inner_index.setdefault(key, []).append(inner_row)

        def flush(block_rows: List[Row]) -> Iterator[Row]:
            if inner_spilled:
                self.ctx.ledger.charge_reads(inner_pages)
            self.ctx.charge_cpu(len(inner_rows))
            if inner_index is not None:
                # bulk-charge the pairwise comparisons NLJ would perform
                self.ctx.charge_cpu(len(block_rows) * len(inner_rows))
                for outer_row in block_rows:
                    okey = tuple(outer_row[p] for p in self.outer_positions)
                    if not _null_free(okey):
                        continue
                    for inner_row in inner_index.get(okey, ()):
                        combined = outer_row + inner_row
                        if self.residual is not None and \
                                self.residual.eval(combined) is not True:
                            continue
                        yield combined
                return
            for outer_row in block_rows:
                for inner_row in inner_rows:
                    self.ctx.charge_cpu(1)
                    combined = outer_row + inner_row
                    if self.residual is not None and \
                            self.residual.eval(combined) is not True:
                        continue
                    yield combined

        try:
            for outer_row in self.outer.rows():
                block.append(outer_row)
                if len(block) >= rows_per_block:
                    for result in flush(block):
                        yield result
                    block = []
            if block:
                for result in flush(block):
                    yield result
        finally:
            self.ctx.mem_release(inner_held)


class IndexNLJoinOp(Operator):
    """Index nested loops; with a remote inner this is "fetch matches"."""

    def __init__(self, ctx: RuntimeContext, outer: Operator, table: Table,
                 inner_schema: Schema, index_column: str,
                 outer_position: int, residual: Optional[Expr],
                 schema: Schema, remote: bool = False,
                 local_site: Optional[str] = None,
                 remote_site: Optional[str] = None):
        super().__init__(ctx, schema)
        self.outer = outer
        self.table = table
        self.inner_schema = inner_schema
        self.index_column = index_column
        self.outer_position = outer_position
        self.residual = residual
        self.remote = remote
        self.local_site = local_site
        self.remote_site = remote_site

    def _batches(self) -> Iterator[Batch]:
        bind_memberships(self.residual, self.ctx)
        index = self.table.index_on(self.index_column)
        if index is None:
            raise ExecutionError(
                "no index on %s.%s" % (self.table.name, self.index_column)
            )
        residual = compile_optional_filter(self.residual,
                                           self)
        width = self.inner_schema.row_width()
        reads = {}  # match count -> pages one probe reads
        probes, charged = [], 0

        def charge_through(last: int) -> None:
            """Charge, in outer order, the probes of the batch's outer
            rows up to ``last``: what a row-at-a-time loop had paid by
            the time it reached that row."""
            nonlocal charged
            while charged < len(probes) and probes[charged][0] <= last:
                matches = probes[charged][1]
                charged += 1
                if matches not in reads:
                    reads[matches] = 1.0 + _probe_data_pages(
                        self.table, self.index_column, matches)
                self.ctx.ledger.charge_reads(reads[matches])
                self.ctx.charge_cpu(matches + 1)
                if self.remote:
                    self.ctx.charge_probe_roundtrip(
                        self.local_site, self.remote_site,
                        16, matches * width)

        carry = None  # the unfilled last output batch, already charged
        for batch in self.outer.batches():
            # one probe per distinct non-NULL key of the batch
            found, probes, charged, outer_at, inner_at = {}, [], 0, [], []
            for i, key in enumerate(columnar.materialize(
                    batch.column(self.outer_position))):
                if key is None:
                    continue
                positions = found.get(key)
                if positions is None:
                    positions = found[key] = self.table.visible_positions(
                        index.probe(key))
                probes.append((i, len(positions)))
                outer_at += [i] * len(positions)
                inner_at += positions
            if inner_at:
                # index positions are physical: the inner is gathered
                # straight off the table's base
                out = Batch(batch.take(outer_at).columns
                            + self.table.take(inner_at), len(inner_at))
                owners = _np.array(outer_at, dtype=_np.intp)
                if residual is not None:
                    keep = _np.asarray(residual(out), dtype=_np.bool_)
                    out, owners = out.select(keep), owners[keep]
                if out.n:
                    joined = out if carry is None else \
                        _gather([carry, out], len(self.schema))
                    carried, stop, carry = joined.n - out.n, 0, None
                    for piece in joined.chunks():
                        stop += piece.n
                        if piece.n < BATCH_ROWS:
                            carry = piece
                            break
                        charge_through(owners[stop - 1 - carried])
                        yield piece
            charge_through(batch.n)
        if carry is not None:
            yield carry


class NestedIterationOp(Operator):
    """Correlated per-outer-row execution of a parameterized template."""

    def __init__(self, ctx: RuntimeContext, outer: Operator,
                 template: Operator, param_id: str,
                 bind_positions: Sequence[int], filter_schema: Schema,
                 residual: Optional[Expr], schema: Schema):
        super().__init__(ctx, schema)
        self.outer = outer
        self.template = template
        self.param_id = param_id
        self.bind_positions = list(bind_positions)
        self.filter_schema = filter_schema
        self.residual = residual

    def _batches(self) -> Iterator[Batch]:
        return batches_from_rows(self._iterate(), len(self.schema))

    def _iterate(self) -> Iterator[Row]:
        bind_memberships(self.residual, self.ctx)
        # Figure 6's "optimized nested iteration": consecutive outer rows
        # with the same binding reuse the previous probe's result, so a
        # sorted outer pays one template run per *distinct* binding.
        last_key = object()
        cached: List[Row] = []
        for outer_row in self.outer.rows():
            self.ctx.charge_cpu(1)
            key = tuple(outer_row[p] for p in self.bind_positions)
            if not _null_free(key):
                continue
            if key != last_key:
                self.ctx.bind_filter_set(
                    self.param_id, FilterSet(self.filter_schema, rows=[key]))
                cached = self.template.to_list()
                last_key = key
            for inner_row in cached:
                combined = outer_row + inner_row
                if self.residual is not None and \
                        self.residual.eval(combined) is not True:
                    continue
                yield combined


class FilterJoinOp(Operator):
    """The Filter Join (Definition 2.1), charging Table 1's components.

    ``measured_components`` records each component's cost delta so the
    Table 1 experiment can print estimate vs. measured side by side.
    """

    EXTRAS = ("filter_set_size", "production_rows", "restricted_rows",
              "bloom_bits", "measured_components")

    def __init__(self, ctx: RuntimeContext, outer: Operator,
                 template: Operator, param_id: str,
                 bind_positions: Sequence[int], filter_schema: Schema,
                 final_outer_positions: Sequence[int],
                 final_inner_positions: Sequence[int],
                 residual: Optional[Expr], schema: Schema,
                 materialize_production: bool = True,
                 lossy: bool = False, bloom_bits: int = 64 * 1024,
                 ship_filter: bool = False,
                 site: Optional[str] = None,
                 filter_site: Optional[str] = None):
        super().__init__(ctx, schema)
        self.outer = outer
        self.template = template
        self.site = site
        self.filter_site = filter_site
        self.param_id = param_id
        self.bind_positions = list(bind_positions)
        self.filter_schema = filter_schema
        self.final_outer_positions = list(final_outer_positions)
        self.final_inner_positions = list(final_inner_positions)
        self.residual = residual
        self.materialize_production = materialize_production
        self.lossy = lossy
        #: the Bloom filter's size; None for an exact filter set
        self.bloom_bits = bloom_bits if lossy else None
        self.ship_filter = ship_filter
        self.measured_components = {}
        # filter effectiveness, filled in by batches() and copied into
        # the statement record: how many production rows there were,
        # how many distinct keys the filter carried, and how many inner
        # rows survived the restriction
        self.production_rows: Optional[int] = None
        self.filter_set_size: Optional[int] = None
        self.restricted_rows: Optional[int] = None

    def _component(self, name: str, before) -> None:
        delta = self.ctx.ledger.delta(before)
        self.measured_components[name] = delta.total(self.ctx.params)

    def _batches(self) -> Iterator[Batch]:
        return _releasing(self.ctx, self._phases)

    def _phases(self, hold) -> Iterator[Batch]:
        """The five phases of Table 1, columnar from the production
        set to the emitted batch.

        Three of them run batch-wise and count kernel-vs-fallback
        batches on this operator: the filter-set build
        (:meth:`FilterSet.distinct`), the lossy membership probe inside
        the template (counted by the set, added here once the template
        is drained),
        and the final join, which is :class:`_HashBuild` — the hash
        join's own build and probe."""
        bind_memberships(self.residual, self.ctx)
        residual = compile_optional_filter(self.residual, self)
        ledger = self.ctx.ledger
        outer_width = self.outer.schema.row_width()

        # 1. Production set (JoinCost_P + ProductionCost_P)
        before = ledger.snapshot()
        production = _gather(self.outer.batches(), len(self.outer.schema))
        hold(production.n * outer_width)
        self._component("JoinCost_P", before)
        before = ledger.snapshot()
        if self.materialize_production:
            temp_pages = self.ctx.charge_materialize(
                production.n, outer_width
            )
            production_spilled = not self.ctx.fits(temp_pages)
        else:
            production_spilled = False
        self._component("ProductionCost_P", before)

        # 2. Distinct projection into the filter set (ProjCost_F)
        before = ledger.snapshot()
        self.ctx.charge_cpu(production.n)
        filter_set = FilterSet.distinct(
            self.filter_schema,
            [production.column(p) for p in self.bind_positions],
            bloom_bits=self.bloom_bits)
        if filter_set.columns is not None:
            self.kernel_batches += 1
        else:
            self.fallback_batches += 1
        self._component("ProjCost_F", before)
        self.production_rows = production.n
        self.filter_set_size = filter_set.size

        # 3. Make the filter available (AvailCost_F)
        before = ledger.snapshot()
        if self.lossy:
            self.ctx.charge_cpu(filter_set.size)  # setting the bits
        else:
            hold(filter_set.size * self.filter_schema.row_width())
        self.ctx.bind_filter_set(self.param_id, filter_set)
        if self.ship_filter:
            self.ctx.charge_filter_ship(filter_set, from_site=self.site,
                                        to_site=self.filter_site)
        self._component("AvailCost_F", before)

        # 4. Restricted inner (FilterCost_Rk). Any ship-home of a remote
        # restriction is performed by the template's own Ship operator,
        # so AvailCost_Rk' is zero here (it pipelines into the join).
        before = ledger.snapshot()
        restricted = _gather(self.template.batches(),
                             len(self.template.schema))
        hold(restricted.n * self.template.schema.row_width())
        self._component("FilterCost_Rk", before)
        self.measured_components["AvailCost_Rk'"] = 0.0
        self.restricted_rows = restricted.n
        self.kernel_batches += filter_set.kernel_batches
        self.fallback_batches += filter_set.fallback_batches

        # 5. Final join (FinalJoinCost): hash join production x restricted
        before = ledger.snapshot()
        if self.materialize_production:
            self.ctx.charge_cpu(production.n)
            if production_spilled:
                ledger.charge_reads(pages_for(production.n, outer_width))
        else:
            # recompute the production set instead of re-reading a temp
            production = _gather(self.outer.batches(),
                                 len(self.outer.schema))
        self.ctx.charge_cpu(restricted.n)
        build = _HashBuild([restricted], self.final_outer_positions,
                           self.final_inner_positions,
                           len(self.template.schema))
        build_pages = pages_for(restricted.n,
                                self.template.schema.row_width())
        self.ctx.charge_cpu(production.n)
        result, pairs = (build.probe(production, self)
                         if production.n and restricted.n else (None, 0))
        self.ctx.charge_cpu(pairs)
        if not self.ctx.fits(build_pages):
            probe_pages = pages_for(production.n, outer_width)
            ledger.charge_writes(build_pages + probe_pages)
            ledger.charge_reads(build_pages + probe_pages)
        self._component("FinalJoinCost", before)
        if result is None:
            return
        if residual is not None:
            result = result.select(residual(result))
        # only the joined columns outlive the join; consumers get them
        # in batch-sized views, so what they derive stays batch-sized
        del production, restricted, build
        yield from result.chunks()


def _releasing(ctx: RuntimeContext, body) -> Iterator:
    """Run the generator ``body(hold)``, where ``hold(nbytes)`` accounts
    working memory against the per-query budget, and release everything
    it held when it finishes, fails, or is closed early."""
    held = 0.0

    def hold(nbytes: float) -> None:
        nonlocal held
        ctx.mem_acquire(nbytes)
        held += nbytes

    try:
        yield from body(hold)
    finally:
        ctx.mem_release(held)


def _gather(batches: Iterator[Batch], width: int) -> Batch:
    """Every row of ``batches`` as one column-backed batch: typed
    pieces are concatenated, and a column that arrived as Python
    objects is encoded when it round-trips exactly (else kept a list)."""
    batches = list(batches)
    pieces = [b.columns for b in batches]  # one transpose per row batch
    columns = [
        columnar.encode_exact(
            columnar.concat_columns([piece[j] for piece in pieces]))
        for j in range(width)
    ]
    return Batch(columns, sum(b.n for b in batches))


class FunctionJoinOp(Operator):
    """Join with a user-defined (function-backed) relation.

    The three modes mirror Figure 6's UDF column: repeated invocation,
    memoized invocation, and the Filter Join (distinct arguments invoked
    consecutively, then joined back).
    """

    EXTRAS = ("invocation_count",)

    def __init__(self, ctx: RuntimeContext, outer: Operator,
                 function_relation, bind_positions: Sequence[int],
                 mode: str, residual: Optional[Expr], schema: Schema):
        super().__init__(ctx, schema)
        self.outer = outer
        self.fn = function_relation
        self.bind_positions = list(bind_positions)
        self.mode = mode
        self.residual = residual
        self.invocation_count = 0

    def _invoke(self, args: tuple, consecutive: bool = False) -> List[tuple]:
        factor = self.fn.locality_factor if consecutive else 1.0
        self.ctx.ledger.charge_invocation(
            self.fn.cost_per_invocation * factor
        )
        self.invocation_count += 1
        results = self.fn.invoke(args)
        return [args + tuple(r) for r in results]

    def _batches(self) -> Iterator[Batch]:
        return batches_from_rows(self._invoke_all(), len(self.schema))

    def _emit(self, outer_row: Row, fn_rows: List[tuple]) -> Iterator[Row]:
        for fn_row in fn_rows:
            combined = outer_row + fn_row
            if self.residual is not None and \
                    self.residual.eval(combined) is not True:
                continue
            yield combined

    def _invoke_all(self) -> Iterator[Row]:
        bind_memberships(self.residual, self.ctx)
        if self.mode == "repeated":
            for outer_row in self.outer.rows():
                self.ctx.charge_cpu(1)
                args = tuple(outer_row[p] for p in self.bind_positions)
                if not _null_free(args):
                    continue
                yield from self._emit(outer_row, self._invoke(args))
            return
        if self.mode == "memo":
            cache = {}
            for outer_row in self.outer.rows():
                self.ctx.charge_cpu(1)
                args = tuple(outer_row[p] for p in self.bind_positions)
                if not _null_free(args):
                    continue
                if args not in cache:
                    cache[args] = self._invoke(args)
                yield from self._emit(outer_row, cache[args])
            return
        yield from _releasing(self.ctx, self._filter_mode)

    def _filter_mode(self, hold) -> Iterator[Row]:
        """The Filter Join over a function: materialize the production
        set, invoke the function on its distinct arguments in sorted
        order (consecutive calls earn the locality discount), join
        back."""
        outer_schema = self.outer.schema
        production = _gather(self.outer.batches(), len(outer_schema))
        hold(production.n * outer_schema.row_width())
        self.ctx.charge_materialize(production.n, outer_schema.row_width())
        self.ctx.charge_cpu(production.n)
        arg_schema = Schema(
            self.fn.base_schema.columns[:len(self.bind_positions)])
        filter_set = FilterSet.distinct(
            arg_schema, [production.column(p) for p in self.bind_positions])
        hold(filter_set.size * arg_schema.row_width())
        results = {
            args: self._invoke(args, consecutive=True)
            for args in filter_set.rows
        }
        hold(sum(map(len, results.values()))
             * self.fn.base_schema.row_width())
        for outer_row in production.rows():
            self.ctx.charge_cpu(1)
            args = tuple(outer_row[p] for p in self.bind_positions)
            # a NULL argument is in no filter set
            yield from self._emit(outer_row, results.get(args, ()))
