"""In-memory tables with a simulated page layout and MVCC versioning.

A table's rows live in one place, its columnar base
(:class:`~repro.storage.columnar.ColumnStore`): typed numpy arrays over
the physical positions ``[0, base)``. Rows appended since the last
:meth:`Table.compact` wait in ``_rows``, a short tail of coerced tuples
at positions ``base, base + 1, ...``, which the next scan or gather
folds into the base. No tuple is kept for a base position; ``rows`` and
``row_at`` build them on demand.

Every table exposes a *page model*: given its schema's row width and a
fixed page size, ``num_pages`` says how many page I/Os a full scan
costs. Executor operators charge those I/Os to the cost ledger; the
optimizer's formulas predict the same quantities from catalog
statistics. This is the substitution documented in DESIGN.md for the
paper's disk-based engine.

Snapshot-isolated versioning rides on the same positions: every version
ever created keeps its physical position, and two ``int64`` arrays
aligned with the positions stamp it — ``_xmin`` with its creating
transaction, ``_xmax`` with the transaction that deleted or superseded
it (:data:`~repro.storage.mvcc.NOT_DELETED` while live). Both are
``None`` while the table is quiesced — every version FROZEN-created and
none deleted — so a table that was loaded and never written holds no
stamp bytes. Visibility is one vectorised rule over the stamps of the
positions asked (:meth:`Table._hidden`), and ``rows``, ``num_rows``,
``visible_positions`` and ``columnar_view`` all read it (see
:mod:`repro.storage.mvcc` for the rule and the freezing protocol that
keeps tables quiesced). Updates never modify a row in place: they stamp
the old version's ``xmax`` and append the new version, so concurrent
readers keep seeing the world their snapshot pinned.
:meth:`Table.vacuum` physically reclaims frozen-dead versions once no
transaction can need them, and :meth:`Table.cluster_by` reorders a
quiesced table; both permute the base's columns.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..errors import CatalogError
from . import columnar
from .index import HashIndex, Index, SortedIndex
from .mvcc import FROZEN, NOT_DELETED, MVCCState
from .schema import Schema

PAGE_SIZE_BYTES = 4096


def pages_for(num_rows: float, row_width: int) -> float:
    """Pages needed to hold ``num_rows`` rows of ``row_width`` bytes.

    Returns a float so cost estimates stay smooth; callers that need a
    whole-page count use ``math.ceil``. Zero rows still cost one page
    (the header/read-to-discover-empty page).
    """
    if num_rows <= 0:
        return 1.0
    per_page = max(1, PAGE_SIZE_BYTES // max(1, row_width))
    return max(1.0, num_rows / per_page)


class Table:
    """An append-only, multi-versioned stored relation.

    Tables own their secondary indexes; ``create_index`` builds over
    one column of the existing rows and ``insert`` maintains all
    indexes incrementally.
    Indexes map keys to *physical* positions and may reference dead
    versions; readers re-check visibility via
    :meth:`visible_positions`.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        #: the columnar base: every physical position below ``_base``
        #: (dead and uncommitted versions included); None until the
        #: first row is folded in
        self._store: Optional["columnar.ColumnStore"] = None
        self._base = 0
        #: the tail: coerced rows at positions ``_base + i``, appended
        #: since the last :meth:`compact`
        self._rows: List[tuple] = []
        self.indexes: dict = {}
        # Column the rows are physically ordered by (clustered), if any;
        # equality probes on it touch contiguous pages.
        self.clustered_on: Optional[str] = None
        # ------------------------------------------- version metadata
        #: the catalog's MVCCState once installed; a standalone Table
        #: never sees stamped versions and behaves exactly as before
        self._mvcc: Optional[MVCCState] = None
        #: creating / deleting txn per physical position, capacity at
        #: least ``physical_count``; None while the table is quiesced
        self._xmin: Optional[np.ndarray] = None
        self._xmax: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ data

    @property
    def rows(self) -> List[tuple]:
        """The rows visible to the current snapshot, as tuples built
        from the base (checkpoints, reference evaluators)."""
        store = self.columnar_view()
        return store.rows() if store is not None else []

    def _stamps(self, size: int):
        """The stamp arrays, allocated (every version FROZEN-created,
        none deleted) or grown geometrically to hold ``size``
        positions."""
        held = 0 if self._xmin is None else len(self._xmin)
        if held < size:
            capacity = max(size, 2 * held)
            grown_min = np.full(capacity, FROZEN, dtype=np.int64)
            grown_max = np.full(capacity, NOT_DELETED, dtype=np.int64)
            if held:
                grown_min[:held] = self._xmin
                grown_max[:held] = self._xmax
            self._xmin, self._xmax = grown_min, grown_max
        return self._xmin, self._xmax

    @property
    def _stamped(self) -> bool:
        """Can any snapshot be refused a version? Not on a quiesced
        table, nor on a standalone one."""
        return self._xmin is not None and self._mvcc is not None

    def _hidden(self, at) -> np.ndarray:
        """Which of the physical positions ``at`` (an index array, or a
        slice for a scan) the current snapshot cannot see, as a boolean
        mask: those whose ``xmin`` is neither FROZEN nor a seen id, or
        whose ``xmax`` is FROZEN or a seen id. Only for a stamped
        table."""
        seen = self._mvcc.read_view().seen_ids()
        xmin, xmax = self._xmin[at], self._xmax[at]
        created = xmin == FROZEN
        hidden = xmax == FROZEN
        for txn_id in seen:  # almost always 0-2 ids: no np.isin
            created |= xmin == txn_id
            hidden |= xmax == txn_id
        return hidden | ~created

    def visible_positions(self, positions: Iterable[int]) -> List[int]:
        """Filter physical positions (an index probe, or a ``range`` for
        a full walk) down to the current snapshot, order kept. Identity
        on a quiesced table, so index paths charge exactly what they
        did pre-MVCC."""
        if not self._stamped:
            return list(positions)
        at = np.asarray(positions, dtype=np.intp)
        return at[~self._hidden(at)].tolist()

    # -------------------------------------------------- columnar base

    def compact(self) -> Optional["columnar.ColumnStore"]:
        """Fold the tail into the columnar base and return the base,
        which then covers every physical position; ``None`` when the
        table never held a row. Called by scans and gathers."""
        if self._rows:
            if self._store is None:
                self._store = columnar.ColumnStore.build(
                    self.schema, self._rows)
            else:
                self._store = self._store.extend(self._rows)
            self._base += len(self._rows)
            self._rows = []
        return self._store

    def columnar_view(self) -> Optional["columnar.ColumnStore"]:
        """The rows visible to the current snapshot in columnar form:
        the base itself when nothing is hidden, else the base gathered
        at the visible positions (row order kept). ``None`` only when
        there is no base (:meth:`compact`)."""
        store = self.compact()
        if store is None or not self._stamped:
            return store
        visible = np.flatnonzero(~self._hidden(slice(0, store.num_rows)))
        if len(visible) == store.num_rows:
            return store
        return columnar.ColumnStore(self.schema, store.take(visible),
                                    len(visible))

    def take(self, positions: Sequence[int]) -> list:
        """The columns of the rows at physical ``positions``, in that
        order: the one gather of stored rows (index scans and joins,
        UPDATE/DELETE targets). A position in the tail is read from its
        tuple, never by folding the tail in, so writing a row that was
        just written copies no column of the base."""
        base = self._base
        if not positions or max(positions) < base:
            if self._store is None:
                return [[] for _ in self.schema]
            return self._store.take(positions)
        at = np.asarray(positions, dtype=np.intp)
        in_tail = at >= base
        rows = [self._rows[p - base] for p in at[in_tail].tolist()]
        if self._store is None:  # no base: every position is in the tail
            return columnar.ColumnStore.build(self.schema, rows).columns
        # the base's rows, then the tail's, then back to the asked order
        head = np.flatnonzero(~in_tail)
        gathered = columnar.ColumnStore(
            self.schema, self._store.take(at[head]), len(head)).extend(rows)
        order = np.argsort(np.concatenate([head, np.flatnonzero(in_tail)]))
        return gathered.take(order)

    def row_at(self, position: int) -> tuple:
        """One physical row as a tuple."""
        if position >= self._base:
            return self._rows[position - self._base]
        return tuple(col[position] for col in self._store.columns)

    def _column(self, name: str) -> list:
        """Every physical value of one column, in position order."""
        at = self.schema.index_of(name)
        store = self.compact()
        return [] if store is None else columnar.materialize(
            store.columns[at])

    def _reload_indexes(self) -> None:
        for index in self.indexes.values():
            index.bulk_load(zip(self._column(index.column_name), count()))

    @property
    def physical_count(self) -> int:
        return self._base + len(self._rows)

    def conflicting_positions(self, positions: Sequence[int]) -> List[int]:
        """Positions that already carry *any* deletion stamp. A version
        that is visible to the caller yet stamped was written by a
        concurrent transaction — the write-write conflict that
        first-committer-wins turns into a SerializationError."""
        if self._xmax is None:
            return []
        at = np.asarray(positions, dtype=np.intp)
        return at[self._xmax[at] != NOT_DELETED].tolist()

    def insert(self, row: Sequence, xmin: int = FROZEN) -> None:
        """Validate, coerce, and append one row, maintaining indexes.

        ``xmin`` stamps the new version with its creating transaction;
        the default FROZEN makes it immediately visible to everyone
        (correct whenever no concurrent snapshot is live)."""
        coerced = self.schema.validate_row(row)
        position = self.physical_count
        self._rows.append(coerced)
        if xmin != FROZEN or self._xmin is not None:
            xmins, xmaxs = self._stamps(position + 1)
            xmins[position] = xmin
            xmaxs[position] = NOT_DELETED
        for index in self.indexes.values():
            key = coerced[self.schema.index_of(index.column_name)]
            index.insert(key, position)

    def insert_many(self, rows: Iterable[Sequence],
                    xmin: int = FROZEN) -> int:
        """Insert many rows; returns the number inserted.

        A bad row mid-batch raises with earlier rows already appended;
        statement-level all-or-nothing behavior is the transaction
        manager's job (it truncates back to the pre-statement length —
        see :meth:`truncate_to` and ``repro.txn``).
        """
        count = 0
        for row in rows:
            self.insert(row, xmin=xmin)
            count += 1
        return count

    def mark_deleted(self, position: int, xmax: int = FROZEN) -> None:
        """Stamp one version as deleted by transaction ``xmax``
        (FROZEN = dead to every snapshot immediately)."""
        self._stamps(self.physical_count)[1][position] = xmax

    def unmark_deleted(self, position: int) -> None:
        """Remove a deletion stamp (the undo of :meth:`mark_deleted`)."""
        self._xmax[position] = NOT_DELETED

    def truncate_to(self, num_rows: int) -> None:
        """Discard every version at position >= ``num_rows``,
        maintaining indexes; the stamps past it are dead capacity. The
        undo of an append when the tail is known to belong to the
        caller."""
        if num_rows >= self.physical_count:
            return
        if num_rows < self._base:
            self._store = columnar.ColumnStore(
                self.schema, self._store.column_slices(0, num_rows),
                num_rows)
            self._base = num_rows
            self._rows = []
        else:
            del self._rows[num_rows - self._base:]
        for index in self.indexes.values():
            index.remove_from(num_rows)

    def retract_inserts(self, before: int, txn_id: int) -> None:
        """Undo an insert batch that started at physical position
        ``before``. When the tail above ``before`` is entirely ours
        (always true for statement-level undo, which runs before the
        statement lock is released) it is physically truncated;
        otherwise — transaction rollback after other transactions
        appended — our versions are stamped frozen-dead for vacuum."""
        end = self.physical_count
        if txn_id != FROZEN and end > before:
            xmax = self._xmax[before:end]
            mine = (self._xmin[before:end] == txn_id) & (xmax != FROZEN)
            if np.count_nonzero(mine) < end - before:
                xmax[mine] = FROZEN
                return
        self.truncate_to(before)

    def freeze_txn(self, txn_id: int) -> None:
        """Rewrite a committed transaction's stamps to FROZEN: its
        insertions become visible to all, its deletions dead to all.
        Called by MVCCState once every live snapshot sees the commit."""
        if self._xmin is not None:
            xmin, xmax = self._xmin, self._xmax
            xmin[xmin == txn_id] = FROZEN
            xmax[xmax == txn_id] = FROZEN

    def vacuum(self) -> int:
        """Physically reclaim frozen-dead versions: keep the other
        positions, in order, in every column of the base and both
        stamp arrays, and rebuild the indexes; drop the stamp arrays
        when what is kept is quiesced. Returns the number reclaimed.

        Only safe when no transaction holds undo closures referencing
        physical positions — the manager guarantees that by vacuuming
        only while no transaction is live.
        """
        if self._xmin is None:
            return 0
        physical = self.physical_count
        keep = np.flatnonzero(self._xmax[:physical] != FROZEN)
        reclaimed = physical - len(keep)
        if reclaimed:
            store = self.compact()
            self._store = columnar.ColumnStore(
                self.schema, store.take(keep), len(keep))
            self._base = len(keep)
            self._xmin, self._xmax = self._xmin[keep], self._xmax[keep]
            self._reload_indexes()
        if not self.unfrozen_versions:
            self._xmin = self._xmax = None
        return reclaimed

    @property
    def dead_versions(self) -> int:
        """Frozen-dead versions: hidden from every snapshot, waiting
        for vacuum."""
        if self._xmax is None:
            return 0
        return int(np.count_nonzero(
            self._xmax[:self.physical_count] == FROZEN))

    @property
    def unfrozen_versions(self) -> int:
        """Versions that are not frozen-dead and still carry a
        transaction's stamp: created or deleted by a transaction some
        snapshot may not see yet, or not committed."""
        if self._xmin is None:
            return 0
        physical = self.physical_count
        xmin, xmax = self._xmin[:physical], self._xmax[:physical]
        return int(np.count_nonzero(
            (xmax != FROZEN) & ((xmin != FROZEN) | (xmax != NOT_DELETED))))

    @property
    def num_rows(self) -> int:
        """Rows visible to the current snapshot: physical minus
        hidden."""
        physical = self.physical_count
        if not self._stamped:
            return physical
        return physical - int(np.count_nonzero(
            self._hidden(slice(0, physical))))

    @property
    def tuples_per_page(self) -> int:
        return max(1, PAGE_SIZE_BYTES // self.schema.row_width())

    @property
    def num_pages(self) -> int:
        """Whole pages occupied (at least 1, even when empty). Page
        occupancy is physical: dead versions take space until
        vacuumed, exactly like a real heap."""
        return int(math.ceil(pages_for(self.physical_count,
                                       self.schema.row_width())))

    def cluster_by(self, column_name: str) -> None:
        """Physically sort the rows by one column and rebuild indexes.

        Models a clustered table: equality/range probes on the cluster
        column read contiguous pages instead of Yao-scattered ones.
        Requires a quiesced table (clustering rewrites every physical
        position); frozen-dead versions are vacuumed first.
        """
        if self.unfrozen_versions:
            raise CatalogError(
                "cannot cluster %r: transactions hold unfrozen row "
                "versions" % self.name
            )
        self.vacuum()
        values = self._column(column_name)
        # the stable sort of the rows by (value is None, value), NULLs
        # last, applied to every column
        order = sorted(range(len(values)),
                       key=lambda at: (values[at] is None, values[at]))
        if self._store is not None:
            self._store = columnar.ColumnStore(
                self.schema, self._store.take(order), len(order))
        self.clustered_on = column_name
        self._reload_indexes()

    # --------------------------------------------------------------- indexes

    def create_index(self, column_name: str, kind: str = "hash") -> Index:
        """Build a secondary index on one column over the existing rows."""
        if column_name in self.indexes:
            raise CatalogError(
                "table %r already has an index on %r" % (self.name, column_name)
            )
        values = self._column(column_name)
        if kind == "hash":
            index: Index = HashIndex(column_name)
        elif kind == "sorted":
            index = SortedIndex(column_name)
        else:
            raise CatalogError("unknown index kind %r" % kind)
        index.bulk_load(zip(values, count()))
        self.indexes[column_name] = index
        return index

    def drop_index(self, column_name: str) -> None:
        """Remove the index on one column (the undo of create_index)."""
        if column_name not in self.indexes:
            raise CatalogError(
                "table %r has no index on %r" % (self.name, column_name)
            )
        del self.indexes[column_name]

    def index_on(self, column_name: str) -> Optional[Index]:
        return self.indexes.get(column_name)

    def __repr__(self) -> str:
        return "Table(%s, %d rows, %d pages)" % (
            self.name,
            self.num_rows,
            self.num_pages,
        )
