"""In-memory tables with a simulated page layout and MVCC versioning.

Rows live in a Python list, but every table exposes a *page model*: given
its schema's row width and a fixed page size, ``num_pages`` says how many
page I/Os a full scan costs. Executor operators charge those I/Os to the
cost ledger; the optimizer's formulas predict the same quantities from
catalog statistics. This is the substitution documented in DESIGN.md for
the paper's disk-based engine.

Concurrency (PR 8) adds snapshot-isolated versioning on top of the
same storage: ``_rows`` holds every version ever created, a parallel
``_xmins`` list stamps each version with its creating transaction, and
a sparse ``_xmaxs`` dict stamps deleted/superseded versions with the
transaction that removed them. Visibility is computed from the stamps,
not the rows: the positions a snapshot cannot see (:meth:`Table._hidden`)
follow from the frozen-dead set and the per-transaction stamp lists
alone, and ``rows``, ``num_rows``, ``visible_positions`` and
``columnar_view`` all read that one set. With nothing hidden
``Table.rows`` is the raw physical list — bit-identical to the pre-MVCC
engine, zero per-row overhead (see :mod:`repro.storage.mvcc` for the
visibility rules and the freezing protocol that keeps tables quiesced).
Updates never modify a row in place: they stamp the old version's
``xmax`` and append the new version, so concurrent readers keep seeing
the world their snapshot pinned. :meth:`vacuum` physically reclaims
frozen-dead versions once no transaction can need them.
"""

from __future__ import annotations

import math
from typing import (AbstractSet, Dict, Iterable, List, Optional, Sequence,
                    Set)

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
    existing rows and ``insert`` maintains all indexes incrementally.
    Indexes map keys to *physical* positions and may reference dead
    versions; readers re-check visibility via
    :meth:`visible_positions`.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
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
        self._vis_rows: Optional[List[tuple]] = None
        # ------------------------------------------- columnar base
        #: typed numpy column arrays covering the *physical* prefix
        #: ``_rows[:_col_base]`` (see repro.storage.columnar), dead and
        #: uncommitted versions included — append-only like the heap;
        #: rows past the base are the row-form delta tail, folded in by
        #: :meth:`compact`. Dropped only when positions move.
        self._colstore: Optional["columnar.ColumnStore"] = None
        self._col_base = 0

    # ------------------------------------------------------------------ data

    @property
    def rows(self) -> List[tuple]:
        """The rows visible to the current snapshot: the raw physical
        list when nothing is hidden (the common, quiesced state), else
        a list cached beside the hidden set."""
        hidden = self._hidden()
        if not hidden:
            return self._rows
        if self._vis_rows is None:
            self._vis_rows = [row for pos, row in enumerate(self._rows)
                              if pos not in hidden]
        return self._vis_rows

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
            self._vis_rows = None
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

    def _col_invalidate(self) -> None:
        self._colstore = None
        self._col_base = 0

    def compact(self) -> Optional["columnar.ColumnStore"]:
        """(Re)build or extend the columnar base to cover every
        *physical* row; ``None`` when the table is empty.

        Called lazily by :meth:`columnar_view` at scan time, and
        eagerly by :meth:`vacuum` right after physical compaction.
        """
        n = len(self._rows)
        if self._colstore is None:
            if n == 0:
                return None
            self._colstore = columnar.ColumnStore.build(
                self.schema, self._rows)
            self._col_base = n
        elif self._col_base < n:
            # fold the row-form delta tail into the columnar base
            self._colstore = self._colstore.extend(
                self._rows[self._col_base:])
            self._col_base = n
        return self._colstore

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

    @property
    def physical_rows(self) -> List[tuple]:
        """Raw storage, every version including dead ones. Owned by
        the transaction manager and vacuum; everyone else wants
        :attr:`rows`."""
        return self._rows

    @property
    def physical_count(self) -> int:
        return len(self._rows)

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
        position = len(self._rows)
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
        if num_rows >= len(self._rows):
            return
        if num_rows < self._col_base:
            self._col_invalidate()
        del self._rows[num_rows:]
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
        if txn_id == FROZEN or len(self._rows) - before == len(mine):
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
        """Physically reclaim frozen-dead versions, compacting storage
        and rebuilding indexes; returns the number reclaimed.

        Only safe when no transaction holds undo closures referencing
        physical positions — the manager guarantees that by vacuuming
        only while no transaction is live.
        """
        if not self._dead:
            return 0
        xmaxs = self._xmaxs
        keep = [p for p in range(len(self._rows))
                if xmaxs.get(p) != FROZEN]
        reclaimed = len(self._rows) - len(keep)
        if not reclaimed:
            return 0
        remap = {}
        rows: List[tuple] = []
        xmins: List[int] = []
        for new_pos, old_pos in enumerate(keep):
            remap[old_pos] = new_pos
            rows.append(self._rows[old_pos])
            xmins.append(self._xmins[old_pos])
        self._rows = rows
        self._xmins = xmins
        self._xmaxs = {remap[p]: x for p, x in xmaxs.items()
                       if x != FROZEN and p in remap}
        for tracker in (self._writers, self._deleters):
            for txn_id in list(tracker):
                mine = [remap[p] for p in tracker[txn_id] if p in remap]
                if mine:
                    tracker[txn_id] = mine
                else:
                    del tracker[txn_id]
        self._dead = set()
        self._mutations += 1
        for index in self.indexes.values():
            col_pos = self.schema.index_of(index.column_name)
            index.bulk_load(
                (row[col_pos], at) for at, row in enumerate(rows)
            )
        # positions moved: rebuild the columnar base over the compacted
        # heap right away (vacuum is the explicit maintenance point)
        self._col_invalidate()
        self.compact()
        return reclaimed

    @property
    def dead_versions(self) -> int:
        return len(self._dead)

    def row_at(self, position: int) -> tuple:
        return self._rows[position]

    @property
    def num_rows(self) -> int:
        """Rows visible to the current snapshot: physical minus
        hidden."""
        return len(self._rows) - len(self._hidden())

    @property
    def tuples_per_page(self) -> int:
        return max(1, PAGE_SIZE_BYTES // self.schema.row_width())

    @property
    def num_pages(self) -> int:
        """Whole pages occupied (at least 1, even when empty). Page
        occupancy is physical: dead versions take space until
        vacuumed, exactly like a real heap."""
        return int(math.ceil(pages_for(len(self._rows),
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
        position = self.schema.index_of(column_name)
        self._rows.sort(key=lambda row: (row[position] is None,
                                         row[position]))
        self.clustered_on = column_name
        self._col_invalidate()
        self._mutations += 1
        for index in self.indexes.values():
            col_pos = self.schema.index_of(index.column_name)
            index.bulk_load(
                (row[col_pos], at) for at, row in enumerate(self._rows)
            )

    # --------------------------------------------------------------- indexes

    def create_index(self, column_name: str, kind: str = "hash") -> Index:
        """Build a secondary index on one column over the existing rows."""
        if column_name in self.indexes:
            raise CatalogError(
                "table %r already has an index on %r" % (self.name, column_name)
            )
        col_pos = self.schema.index_of(column_name)
        if kind == "hash":
            index: Index = HashIndex(column_name)
        elif kind == "sorted":
            index = SortedIndex(column_name)
        else:
            raise CatalogError("unknown index kind %r" % kind)
        index.bulk_load(
            (row[col_pos], position)
            for position, row in enumerate(self._rows)
        )
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
