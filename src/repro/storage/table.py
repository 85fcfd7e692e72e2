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
ever created keeps its physical position, a parallel ``_xmins`` list
stamps each with its creating transaction, and a sparse ``_xmaxs`` dict
stamps deleted/superseded versions with the transaction that removed
them. Visibility is computed from the stamps, not the rows: the
positions a snapshot cannot see (:meth:`Table._hidden`) follow from the
frozen-dead set and the per-transaction stamp lists alone, and
``rows``, ``num_rows``, ``visible_positions`` and ``columnar_view`` all
read that one set (see :mod:`repro.storage.mvcc` for the visibility
rules and the freezing protocol that keeps tables quiesced). Updates
never modify a row in place: they stamp the old version's ``xmax`` and
append the new version, so concurrent readers keep seeing the world
their snapshot pinned. :meth:`Table.vacuum` physically reclaims
frozen-dead versions once no transaction can need them, and
:meth:`Table.cluster_by` reorders a quiesced table; both permute the
base's columns.
"""

from __future__ import annotations

import math
from itertools import compress, count
from typing import (AbstractSet, Dict, Iterable, List, Optional, Sequence,
                    Set)

import numpy as np

from ..errors import CatalogError
from . import columnar
from .index import HashIndex, Index, SortedIndex
from .mvcc import FROZEN, MVCCState
from .schema import Schema

PAGE_SIZE_BYTES = 4096

_NOTHING_HIDDEN: frozenset = frozenset()


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
        #: creating txn per physical row; FROZEN = visible to all
        self._xmins: List[int] = []
        #: physical position -> deleting txn; FROZEN = dead to all
        self._xmaxs: Dict[int, int] = {}
        #: unfrozen txn id -> positions it created (for freeze/undo)
        self._writers: Dict[int, List[int]] = {}
        #: unfrozen txn id -> positions it deleted (for freeze)
        self._deleters: Dict[int, List[int]] = {}
        #: the frozen-dead versions (xmax == FROZEN): hidden from every
        #: snapshot, vacuumable
        self._dead: Set[int] = set()
        #: bumped on any row/version change; keys the visibility cache
        self._mutations = 0
        self._vis_key: Optional[tuple] = None
        self._vis_hidden: AbstractSet[int] = _NOTHING_HIDDEN

    # ------------------------------------------------------------------ data

    @property
    def rows(self) -> List[tuple]:
        """The rows visible to the current snapshot, as tuples built
        from the base (checkpoints, reference evaluators)."""
        store = self.columnar_view()
        return store.rows() if store is not None else []

    def _hidden(self) -> AbstractSet[int]:
        """Physical positions the current snapshot cannot see, from the
        stamps alone — O(stamped versions), not O(rows): the frozen-dead
        versions, versions whose deletion the snapshot sees, and
        versions created by a transaction it does not see. Every
        unfrozen ``xmax`` / ``xmin`` is tracked per transaction in
        ``_deleters`` / ``_writers`` until it freezes or is retracted,
        so neither the rows nor the frozen stamps are walked. Cached
        per (snapshot, mutation); callers must not modify the set."""
        if (not self._xmaxs and not self._writers) or self._mvcc is None:
            return _NOTHING_HIDDEN
        snap = self._mvcc.read_view()
        key = (snap.txn_id, snap.seq, self._mutations)
        if key != self._vis_key:
            sees, xmaxs = snap.sees, self._xmaxs
            hidden = set(self._dead)
            for txn_id, positions in self._deleters.items():
                if sees(txn_id):  # entries may be stale: check the stamp
                    hidden.update(pos for pos in positions
                                  if xmaxs.get(pos) == txn_id)
            for txn_id, positions in self._writers.items():
                if not sees(txn_id):
                    hidden.update(positions)
            self._vis_key = key
            self._vis_hidden = hidden
        return self._vis_hidden

    def visible_positions(self, positions: Iterable[int]) -> List[int]:
        """Filter physical positions (an index probe, or a ``range`` for
        a full walk) down to the current snapshot, order kept. Identity
        on a quiesced table, so index paths charge exactly what they
        did pre-MVCC."""
        hidden = self._hidden()
        if not hidden:
            return list(positions)
        return [pos for pos in positions if pos not in hidden]

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
        the base itself when nothing is hidden, else the base with the
        hidden positions masked out (row order kept). ``None`` only
        when there is no base (:meth:`compact`)."""
        store = self.compact()
        hidden = self._hidden()
        if store is None or not hidden:
            return store
        return store.without(hidden)

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
        xmaxs = self._xmaxs
        if not xmaxs:
            return []
        return [p for p in positions if p in xmaxs]

    def insert(self, row: Sequence, xmin: int = FROZEN) -> None:
        """Validate, coerce, and append one row, maintaining indexes.

        ``xmin`` stamps the new version with its creating transaction;
        the default FROZEN makes it immediately visible to everyone
        (correct whenever no concurrent snapshot is live)."""
        coerced = self.schema.validate_row(row)
        position = self.physical_count
        self._rows.append(coerced)
        self._xmins.append(xmin)
        if xmin:
            self._writers.setdefault(xmin, []).append(position)
        self._mutations += 1
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
        self._xmaxs[position] = xmax
        if xmax:
            self._deleters.setdefault(xmax, []).append(position)
        else:
            self._dead.add(position)
        self._mutations += 1

    def unmark_deleted(self, position: int) -> None:
        """Remove a deletion stamp (the undo of :meth:`mark_deleted`).
        Stale entries in the deleter tracking lists are tolerated by
        :meth:`freeze_txn`'s ownership check."""
        xmax = self._xmaxs.pop(position, None)
        if xmax == FROZEN:
            self._dead.discard(position)
        self._mutations += 1

    def truncate_to(self, num_rows: int) -> None:
        """Discard every version at position >= ``num_rows``,
        maintaining indexes and version metadata. The undo of an
        append when the tail is known to belong to the caller."""
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
        del self._xmins[num_rows:]
        if self._xmaxs:
            kept = {p: x for p, x in self._xmaxs.items() if p < num_rows}
            self._xmaxs = kept
            self._dead = {p for p in self._dead if p < num_rows}
        for tracker in (self._writers, self._deleters):
            for txn_id in list(tracker):
                mine = [p for p in tracker[txn_id] if p < num_rows]
                if mine:
                    tracker[txn_id] = mine
                else:
                    del tracker[txn_id]
        self._mutations += 1
        for index in self.indexes.values():
            index.remove_from(num_rows)

    def retract_inserts(self, before: int, txn_id: int) -> None:
        """Undo an insert batch that started at physical position
        ``before``. When the tail above ``before`` is entirely ours
        (always true for statement-level undo, which runs before the
        statement lock is released) it is physically truncated;
        otherwise — transaction rollback after other transactions
        appended — our versions are stamped frozen-dead for vacuum."""
        mine = [p for p in self._writers.get(txn_id, ()) if p >= before]
        if txn_id == FROZEN or self.physical_count - before == len(mine):
            self.truncate_to(before)
            return
        for position in mine:
            if self._xmaxs.get(position) != FROZEN:
                self._xmaxs[position] = FROZEN
                self._dead.add(position)
        kept = [p for p in self._writers[txn_id] if p < before]
        if kept:
            self._writers[txn_id] = kept
        else:
            del self._writers[txn_id]
        self._mutations += 1

    def freeze_txn(self, txn_id: int) -> None:
        """Rewrite a committed transaction's stamps to FROZEN: its
        insertions become visible to all, its deletions dead to all.
        Called by MVCCState once every live snapshot sees the commit."""
        for position in self._writers.pop(txn_id, ()):
            self._xmins[position] = FROZEN
        for position in self._deleters.pop(txn_id, ()):
            if self._xmaxs.get(position) == txn_id:
                self._xmaxs[position] = FROZEN
                self._dead.add(position)
        self._mutations += 1

    def forget_txn(self, txn_id: int) -> None:
        """Drop a rolled-back transaction's tracking entries (its
        stamps were already retracted by the undo closures)."""
        self._writers.pop(txn_id, None)
        self._deleters.pop(txn_id, None)
        self._mutations += 1

    def vacuum(self) -> int:
        """Physically reclaim frozen-dead versions: drop their positions
        from every column of the base, renumber the stamps and rebuild
        the indexes; returns the number reclaimed.

        Only safe when no transaction holds undo closures referencing
        physical positions — the manager guarantees that by vacuuming
        only while no transaction is live.
        """
        dead = self._dead
        if not dead:
            return 0
        reclaimed = len(dead)
        store = self.compact()
        keep = np.ones(store.num_rows, dtype=np.bool_)
        keep[np.fromiter(dead, np.intp, len(dead))] = False
        # old position -> new position, for the kept ones
        renumber = (np.cumsum(keep) - 1).tolist()
        self._store = store.without(dead)
        self._base = self._store.num_rows
        self._xmins = list(compress(self._xmins, keep.tolist()))
        self._xmaxs = {renumber[p]: x for p, x in self._xmaxs.items()
                       if x != FROZEN}
        for tracker in (self._writers, self._deleters):
            for txn_id in list(tracker):
                mine = [renumber[p] for p in tracker[txn_id]
                        if p not in dead]
                if mine:
                    tracker[txn_id] = mine
                else:
                    del tracker[txn_id]
        self._dead = set()
        self._mutations += 1
        self._reload_indexes()
        return reclaimed

    @property
    def dead_versions(self) -> int:
        return len(self._dead)

    @property
    def num_rows(self) -> int:
        """Rows visible to the current snapshot: physical minus
        hidden."""
        return self.physical_count - len(self._hidden())

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
        if self._writers or any(x != FROZEN
                                for x in self._xmaxs.values()):
            raise CatalogError(
                "cannot cluster %r: transactions hold unfrozen row "
                "versions" % self.name
            )
        if self._xmaxs:
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
        self._mutations += 1
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
