"""The transaction manager: undo-based atomicity + redo logging + MVCC.

Every mutating statement runs inside :meth:`TransactionManager.atomic`
— joining the open explicit transaction if there is one, otherwise
wrapped in an implicit autocommit transaction. Each operation method
(``do_insert``, ``do_create_table``, ...) performs the change, pushes
an undo closure, and (when a WAL is active) buffers a logical redo
record. The three outcomes:

- **statement fails** — ``atomic`` pops undo closures back to the
  statement's mark: statement-level atomicity, even mid-``insert_many``.
- **ROLLBACK** (or an implicit transaction failing) — all undo closures
  run and the buffered redo records are discarded: content reverts
  exactly, down to the table, view and statistics objects, so a cached
  plan (checked against :meth:`Catalog.inputs`) misses exactly when
  what it read differs.
- **COMMIT** — the redo records plus a commit marker are appended to
  the WAL (fsynced under ``durability="commit"``); only then is the
  transaction forgotten. A crash before the commit record is durable
  means recovery discards the whole transaction — which is exactly the
  atomicity contract.

Redo is buffered per-transaction rather than logged eagerly, so
rollback (full or to a savepoint) is pure in-memory truncation and the
WAL only ever contains committed work plus, transiently, the tail of
the commit batch in progress.

Concurrency (PR 8): the manager now holds one :class:`SessionState`
per connection — the database binds a session before executing each
statement, so ``self.current`` always means "the bound session's open
transaction". Row versions are stamped per the MVCC scheme in
:mod:`repro.storage.mvcc`: explicit transactions pin a begin-snapshot
and stamp every version they create or delete with their id; implicit
(single-statement) transactions skip stamping entirely when no
concurrent snapshot is live, which keeps the single-caller write path
within the transaction benchmark's 5% budget. Write-write conflicts
surface as :class:`~repro.errors.SerializationError` the moment the
second writer touches a row with an unfrozen deletion stamp —
first-committer-wins, detected no-wait at write time.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, List, Optional, Set, Tuple

from ..errors import (
    SerializationError,
    TransactionAborted,
    TransactionError,
    WalError,
)
from ..executor.vectorize import Batch, compile_filter
from ..expr.nodes import conjuncts, sargable
from ..storage.mvcc import FROZEN, Snapshot
from .state import state_dict
from .wal import FileStorage, MemoryStorage, WriteAheadLog


class Savepoint:
    """A rollback mark inside one transaction: undo/redo list lengths."""

    __slots__ = ("name", "undo_len", "redo_len")

    def __init__(self, name: str, undo_len: int, redo_len: int):
        self.name = name
        self.undo_len = undo_len
        self.redo_len = redo_len


class SessionState:
    """One connection's transaction state. The engine executes
    statements one at a time under the database lock; a session is
    bound for the duration of each of its statements."""

    __slots__ = ("name", "txn")

    def __init__(self, name: str):
        self.name = name
        self.txn: Optional["Transaction"] = None


class Transaction:
    """One (explicit or implicit) transaction's in-flight state."""

    __slots__ = ("id", "implicit", "undo", "redo", "savepoints",
                 "aborted", "abort_cause", "statements",
                 "log_redo", "snapshot", "isolation", "tables",
                 "stamped")

    def __init__(self, txn_id: int, implicit: bool,
                 log_redo: bool, isolation: str = "snapshot"):
        self.id = txn_id
        self.implicit = implicit
        self.undo: List[Callable[[], None]] = []
        self.redo: List[dict] = []
        self.savepoints: List[Savepoint] = []
        self.aborted = False
        self.abort_cause = ""
        self.statements = 0
        # sampled at BEGIN: with durability off, redo records are never
        # consulted, so skipping them keeps autocommit overhead at a
        # closure push
        self.log_redo = log_redo
        #: the pinned read snapshot (explicit transactions only)
        self.snapshot: Optional[Snapshot] = None
        self.isolation = isolation
        #: tables whose versions this transaction touched
        self.tables: Set = set()
        #: True once any version was stamped with our id (and so must
        #: be committed into the MVCC ordering / frozen later)
        self.stamped = False

    @property
    def name(self) -> str:
        return "t%d" % self.id


#: auto-vacuum thresholds: reclaim once a table holds at least this
#: many frozen-dead versions AND they are at least a quarter of it
VACUUM_MIN_DEAD = 64
VACUUM_DEAD_FRACTION = 0.25


def _gather(table, positions: List[int]) -> Batch:
    """The rows at physical ``positions`` of ``table``, as one batch."""
    return Batch(table.take(positions), len(positions))


class TransactionManager:
    """Statement- and transaction-level atomicity for one Database."""

    def __init__(self, db):
        self._db = db
        self._default_session = SessionState("main")
        self._active = self._default_session
        self._sessions: List[SessionState] = [self._default_session]
        self._session_ids = itertools.count(1)
        #: "abort" (PostgreSQL semantics: an error inside an explicit
        #: transaction aborts it until ROLLBACK) or "continue" (the
        #: failed statement is undone, the transaction stays usable —
        #: psql's ON_ERROR_ROLLBACK)
        self.on_error = "abort"
        self._ids = itertools.count(1)
        self._wal: Optional[WriteAheadLog] = None
        # commit records ever written to the attached WAL (checkpoint
        # records carry this so recovery — and the crash harness's
        # independent parser — can count commits across a checkpoint)
        self.wal_commits = 0
        db.catalog.analyze_listener = self._on_analyze
        db.catalog.mvcc.manager = self

    # ---------------------------------------------------------- sessions

    @property
    def current(self) -> Optional[Transaction]:
        """The bound session's open transaction."""
        return self._active.txn

    @current.setter
    def current(self, txn: Optional[Transaction]) -> None:
        self._active.txn = txn

    @property
    def session(self) -> SessionState:
        return self._active

    def new_session(self, name: Optional[str] = None) -> SessionState:
        state = SessionState(name or "s%d" % next(self._session_ids))
        self._sessions.append(state)
        return state

    def bind(self, state: SessionState) -> None:
        """Make ``state`` the session whose transaction ``current``
        means. Must be called under the database statement lock."""
        self._active = state

    def bind_default(self) -> None:
        self._active = self._default_session

    def close_session(self, state: SessionState) -> None:
        """Roll back the session's open transaction (a disconnect is a
        rollback) and forget the session."""
        if state.txn is not None:
            previous = self._active
            self._active = state
            try:
                self.rollback()
            finally:
                self._active = previous
        if state is not self._default_session and state in self._sessions:
            self._sessions.remove(state)

    def any_open_txn(self) -> Optional[Transaction]:
        for state in self._sessions:
            if state.txn is not None:
                return state.txn
        return None

    # -------------------------------------------------------------- WAL

    @property
    def durability(self) -> str:
        return self._db.defaults.durability or "off"

    @property
    def _mvcc(self):
        return self._db.catalog.mvcc

    def attach_wal(self, wal: WriteAheadLog) -> WriteAheadLog:
        """Install a specific WAL (tests, crash harness, recovery)."""
        self._wal = wal
        return wal

    def wal(self) -> Optional[WriteAheadLog]:
        """The attached WAL, opening one lazily when durability is on:
        a :class:`FileStorage` at ``Options.wal_path`` when set,
        otherwise in-memory."""
        if self._wal is None and self.durability != "off":
            path = self._db.defaults.wal_path
            storage = FileStorage(path) if path else MemoryStorage()
            self._wal = WriteAheadLog(storage)
        return self._wal

    # -------------------------------------------------- statement scope

    @contextmanager
    def atomic(self):
        """Statement-level atomicity: join the open transaction (or an
        implicit autocommit one); on error, undo just this statement."""
        txn = self.current
        implicit = txn is None
        if implicit:
            txn = self._begin(implicit=True)
        txn.statements += 1
        undo_mark = len(txn.undo)
        redo_mark = len(txn.redo)
        try:
            yield txn
        except BaseException:
            self._undo_to(txn, undo_mark)
            del txn.redo[redo_mark:]
            if implicit:
                self.current = None
            raise
        if implicit:
            self._commit(txn)

    @contextmanager
    def statement_snapshot(self):
        """Pin the MVCC read view for one statement: the open explicit
        transaction's snapshot (refreshed first under read-committed),
        else a fresh view of everything committed so far."""
        mvcc = self._mvcc
        txn = self.current
        previous = mvcc.active
        if txn is not None and not txn.implicit:
            if txn.isolation == "read-committed":
                txn.snapshot = mvcc.refresh(txn.id)
            mvcc.active = txn.snapshot
        else:
            mvcc.active = mvcc.snapshot(None)
        try:
            yield
        finally:
            mvcc.active = previous

    def note_error(self, exc: Optional[BaseException]) -> None:
        """Mark the open explicit transaction aborted after a statement
        error escaped to the caller (unless on_error='continue')."""
        txn = self.current
        if txn is None or txn.implicit or txn.aborted:
            return
        if isinstance(exc, TransactionAborted):
            return
        if self.on_error == "continue":
            return
        txn.aborted = True
        txn.abort_cause = type(exc).__name__ if exc is not None else \
            "KeyboardInterrupt"

    def clear_aborted(self) -> None:
        """Resurrect an aborted transaction (the distributed coordinator
        uses this after undoing a statement that died on a downed site,
        before transparently re-optimizing and re-running it)."""
        if self.current is not None:
            self.current.aborted = False
            self.current.abort_cause = ""

    def check_usable(self) -> None:
        """Raise :class:`TransactionAborted` when the open transaction
        is aborted (only COMMIT/ROLLBACK may run then)."""
        txn = self.current
        if txn is not None and txn.aborted:
            raise TransactionAborted(
                "current transaction is aborted (by %s); statements are "
                "refused until ROLLBACK" % (txn.abort_cause or "an error"),
                cause=txn.abort_cause,
            )

    # ------------------------------------------------------- txn control

    def begin(self, isolation: Optional[str] = None) -> Transaction:
        if self.current is not None:
            raise TransactionError(
                "already in a transaction (%s); nested BEGIN is not "
                "supported — use SAVEPOINT" % self.current.name
            )
        txn = self._begin(implicit=False, isolation=isolation)
        txn.snapshot = self._mvcc.register(txn.id)
        self._db.event_log.emit("txn_begin", txn=txn.name,
                                session=self._active.name,
                                isolation=txn.isolation)
        return txn

    def _begin(self, implicit: bool,
               isolation: Optional[str] = None) -> Transaction:
        txn = Transaction(
            next(self._ids), implicit,
            log_redo=self.durability != "off",
            isolation=isolation or "snapshot",
        )
        self.current = txn
        if implicit:
            # re-attribute the statement's read view so the implicit
            # transaction sees its own stamped writes mid-statement
            mvcc = self._mvcc
            active = mvcc.active
            if active is not None and active.txn_id is None:
                mvcc.active = Snapshot(mvcc, txn.id, active.seq)
        self._db.metrics_registry.inc(
            "txn_begins_total",
            label="implicit" if implicit else "explicit")
        return txn

    def commit(self) -> str:
        """COMMIT the open transaction; on an aborted one this rolls
        back instead (PostgreSQL semantics) and returns "rollback"."""
        txn = self.current
        if txn is None:
            raise TransactionError("COMMIT outside a transaction")
        if txn.aborted:
            self.rollback()
            return "rollback"
        self._commit(txn)
        self._db.event_log.emit("txn_commit", txn=txn.name,
                                ops=txn.statements,
                                session=self._active.name)
        return "commit"

    def _commit(self, txn: Transaction) -> None:
        wal = self.wal()
        if wal is not None and txn.redo:
            try:
                for record in txn.redo:
                    record["t"] = txn.id
                    wal.append(record)
                wal.append({"t": txn.id, "op": "commit"})
                if self.durability == "commit":
                    wal.sync()
            except BaseException:
                # the commit did not become durable; keep memory
                # consistent with the log by rolling the txn back
                # before the error (or simulated crash) propagates
                self._rollback_all(txn)
                raise
            self.wal_commits += 1
        mvcc = self._mvcc
        if not txn.implicit:
            mvcc.deregister(txn.id)
        if txn.stamped:
            mvcc.record_commit(txn.id, txn.tables)
        elif not txn.implicit:
            # our snapshot's departure may unblock pending freezes
            mvcc.freeze()
        self.current = None
        self._db.metrics_registry.inc(
            "txn_commits_total",
            label="implicit" if txn.implicit else "explicit")
        if txn.tables and not mvcc.live:
            self._maybe_vacuum(txn.tables)

    def _maybe_vacuum(self, tables) -> None:
        """Opportunistic reclamation once no snapshot can need the dead
        versions (and no undo closure can reference their positions)."""
        for table in tables:
            dead = table.dead_versions
            if dead >= VACUUM_MIN_DEAD and \
                    dead >= VACUUM_DEAD_FRACTION * table.physical_count:
                reclaimed = table.vacuum()
                if reclaimed:
                    self._db.metrics_registry.inc(
                        "vacuum_rows_reclaimed_total", amount=reclaimed)
                    self._db.event_log.emit(
                        "vacuum", table=table.name, reclaimed=reclaimed)

    def vacuum(self) -> dict:
        """Explicit ``db.vacuum()``: freeze whatever the (empty) live
        set allows, then compact every table. Refused while any
        session holds an open transaction — undo closures capture
        physical row positions that compaction would invalidate."""
        open_txn = self.any_open_txn()
        if open_txn is not None:
            raise TransactionError(
                "cannot vacuum while a transaction is open (%s)"
                % open_txn.name
            )
        self._mvcc.freeze()
        report = {}
        for table in self._db.catalog.tables():
            reclaimed = table.vacuum()
            if reclaimed:
                report[table.name] = reclaimed
                self._db.metrics_registry.inc(
                    "vacuum_rows_reclaimed_total", amount=reclaimed)
        return report

    def rollback(self, savepoint: Optional[str] = None) -> None:
        txn = self.current
        if txn is None:
            raise TransactionError("ROLLBACK outside a transaction")
        if savepoint is not None:
            self._rollback_to_savepoint(txn, savepoint)
            return
        self._rollback_all(txn)
        self._db.metrics_registry.inc("txn_rollbacks_total",
                                      label="explicit")
        self._db.event_log.emit("txn_rollback", txn=txn.name,
                                session=self._active.name)

    def _rollback_all(self, txn: Transaction) -> None:
        self._undo_to(txn, 0)
        if not txn.implicit:
            mvcc = self._mvcc
            mvcc.deregister(txn.id)
            mvcc.freeze()
        txn.redo.clear()
        txn.savepoints.clear()
        txn.aborted = False
        self.current = None

    @staticmethod
    def _undo_to(txn: Transaction, undo_len: int) -> None:
        """Pop undo closures (LIFO) down to ``undo_len``."""
        while len(txn.undo) > undo_len:
            txn.undo.pop()()

    def savepoint(self, name: str) -> None:
        txn = self._require_explicit("SAVEPOINT")
        txn.savepoints.append(Savepoint(
            name.lower(), len(txn.undo), len(txn.redo)))

    def _find_savepoint(self, txn: Transaction, name: str) -> int:
        key = name.lower()
        for at in range(len(txn.savepoints) - 1, -1, -1):
            if txn.savepoints[at].name == key:
                return at
        raise TransactionError("no savepoint named %r" % name)

    def _rollback_to_savepoint(self, txn: Transaction,
                               name: str) -> None:
        at = self._find_savepoint(txn, name)
        mark = txn.savepoints[at]
        self._undo_to(txn, mark.undo_len)
        del txn.redo[mark.redo_len:]
        # the savepoint itself survives (PostgreSQL semantics); later
        # ones are gone with the work they marked
        del txn.savepoints[at + 1:]
        txn.aborted = False
        txn.abort_cause = ""
        self._db.metrics_registry.inc("txn_rollbacks_total",
                                      label="savepoint")

    def release(self, name: str) -> None:
        txn = self._require_explicit("RELEASE SAVEPOINT")
        at = self._find_savepoint(txn, name)
        del txn.savepoints[at:]

    def _require_explicit(self, what: str) -> Transaction:
        if self.current is None or self.current.implicit:
            raise TransactionError("%s outside a transaction" % what)
        return self.current

    # ------------------------------------------------------- operations
    #
    # Each performs one logical mutation, pushes its undo, and buffers
    # its redo record. All must be called inside atomic().

    def _stamp(self, txn: Transaction) -> int:
        """The version stamp for this transaction's writes: FROZEN on
        the single-caller fast path (an implicit transaction with no
        live snapshot anywhere — it begins and commits under the
        statement lock, so nothing can observe its in-flight state),
        else the transaction id."""
        if txn.implicit and not self._mvcc.live:
            return FROZEN
        txn.stamped = True
        return txn.id

    def _check_conflicts(self, table, positions) -> None:
        """First-committer-wins: a row version that is visible to us
        but already carries a deletion stamp was written by a
        concurrent transaction (uncommitted, or committed after our
        snapshot). Touching it now would be a lost update."""
        conflicts = table.conflicting_positions(positions)
        if conflicts:
            self._db.metrics_registry.inc(
                "txn_serialization_failures_total")
            raise SerializationError(
                "could not serialize access to %r: %d row(s) were "
                "concurrently updated (first-committer-wins)"
                % (table.name, len(conflicts)),
                table=table.name,
            )

    def do_insert(self, table_name: str, rows) -> int:
        txn = self.current
        catalog = self._db.catalog
        table = catalog.table(table_name)
        before = table.physical_count
        xmin = self._stamp(txn)
        # registered before the mutation: a bad row mid-batch leaves
        # earlier rows appended, and this retraction removes them
        txn.undo.append(lambda: table.retract_inserts(before, xmin))
        txn.tables.add(table)
        count = table.insert_many(rows, xmin=xmin)
        if txn.log_redo and count:
            txn.redo.append({
                "op": "insert", "table": table.name,
                "rows": [list(table.row_at(position)) for position in
                         range(before, table.physical_count)],
            })
        return count

    def _candidates(self, table, index=None, op: str = "=",
                    value=None) -> List[int]:
        """Where UPDATE, DELETE and replayed deletes look for their
        rows: the visible physical positions, ascending — those
        ``index`` holds for ``key <op> value`` (the caller's own
        uncommitted versions included, like any other), or every
        position when no index applies."""
        if index is None:
            return table.visible_positions(range(table.physical_count))
        return table.visible_positions(sorted(index.search(op, value)))

    def _match(self, table, where
               ) -> Tuple[List[int], Optional[Batch], str, int]:
        """Targets of an UPDATE/DELETE: (positions, a batch of the rows
        at them — None when there is no candidate — access path, rows
        examined). A conjunct an index of the table
        answers (:func:`~repro.expr.nodes.sargable`; an equality before
        a range) narrows the candidates; the candidates are gathered off
        the table once and the *full* WHERE is evaluated over them by
        the compiled filter a SELECT uses, in position order, so the
        matched rows and their order — hence the redo records — are
        exactly the full scan's. The same gather hands the matched rows
        to the caller for the SET values and the redo record.
        Everything is located before the caller stamps anything: a SET
        that changes the probed key cannot re-visit its own output."""
        probes = [probe for probe in
                  (sargable(pred, table) for pred in conjuncts(where))
                  if probe is not None]
        if probes:
            probe, index = min(probes, key=lambda p: p[0].op != "=")
            access = "index(%s.%s)" % (table.name, index.column_name)
            candidates = self._candidates(table, index, probe.op,
                                          probe.right.value)
        else:
            access = "scan"
            candidates = self._candidates(table)
        matched, batch = candidates, None
        if candidates:
            batch = _gather(table, candidates)
            if where is not None:
                flags = compile_filter(where)(batch)
                matched = list(itertools.compress(candidates, flags))
                # a keyed write usually matches every candidate, and a
                # select costs more than the gather of one row
                if len(matched) < len(candidates):
                    batch = batch.select(flags)
        metrics = self._db.metrics_registry
        metrics.inc("dml_access_total",
                    label="index" if probes else "scan")
        metrics.inc("dml_rows_examined_total", amount=len(candidates))
        return matched, batch, access, len(candidates)

    def _delete_versions(self, table, positions: List[int],
                         rows: Batch) -> None:
        """Stamp ``positions`` (holding ``rows``) deleted by the current
        transaction: conflict check, undo closure and the
        ``delete_rows`` redo record, the only reader of ``rows``."""
        txn = self.current
        self._check_conflicts(table, positions)
        stamp = self._stamp(txn)
        txn.tables.add(table)
        marked: List[int] = []

        def undo():
            for position in marked:
                table.unmark_deleted(position)

        txn.undo.append(undo)
        for position in positions:
            table.mark_deleted(position, stamp)
            marked.append(position)
        if txn.log_redo:
            txn.redo.append({
                "op": "delete_rows", "table": table.name,
                "rows": [list(row) for row in rows.rows()],
            })

    def do_update(self, table_name: str, assignments, where
                  ) -> Tuple[int, str, int]:
        """UPDATE: stamp each matched visible version as deleted and
        append the replacement — never in place, so concurrent
        snapshots keep reading the version they pinned. Returns
        (rows updated, access path, rows examined) — see :meth:`_match`,
        whose matched rows feed the SET values and the redo record.

        ``assignments`` is ``[(column_name, resolved Expr)]``; ``where``
        a resolved Expr or None, both bound by
        :meth:`repro.sql.binder.Binder.bind_dml`.
        """
        table = self._db.catalog.table(table_name)
        schema = table.schema
        set_positions = [(schema.index_of(column), expr)
                         for column, expr in assignments]
        matched, batch, access, examined = self._match(table, where)
        if matched:
            self._delete_versions(table, matched, batch)
            new_rows = []
            for row in batch.rows():
                values = list(row)
                for at, expr in set_positions:
                    values[at] = expr.eval(row)
                new_rows.append(values)
            self.do_insert(table_name, new_rows)
        return len(matched), access, examined

    def do_delete(self, table_name: str, where) -> Tuple[int, str, int]:
        """DELETE: stamp each matched visible version as deleted.
        Returns (rows deleted, access path, rows examined)."""
        table = self._db.catalog.table(table_name)
        matched, batch, access, examined = self._match(table, where)
        if matched:
            self._delete_versions(table, matched, batch)
        return len(matched), access, examined

    def do_delete_values(self, table_name: str, values) -> int:
        """Value-based delete (WAL replay): remove the first visible
        occurrence of each row value, in order. Deterministic given the
        committed-prefix state, which is what makes logical update/
        delete records replayable. A value is located through an index
        of the table when it has one (any will do — candidates are
        compared with the whole row), by a walk of the table otherwise."""
        table = self._db.catalog.table(table_name)
        wanted = [tuple(table.schema.validate_row(value))
                  for value in values]
        index = next(iter(table.indexes.values()), None)
        key_at = (table.schema.index_of(index.column_name)
                  if index is not None else 0)
        everything: Optional[List[int]] = None
        taken: Set[int] = set()
        positions: List[int] = []
        found_rows: List[tuple] = []
        for value in wanted:
            if index is not None and value[key_at] is not None:
                candidates = self._candidates(table, index,
                                              value=value[key_at])
                rows = _gather(table, candidates).rows()
            else:  # a NULL key is in no probe's answer
                if everything is None:
                    everything = self._candidates(table)
                    every_row = _gather(table, everything).rows()
                candidates, rows = everything, every_row
            found = next(((pos, row) for pos, row in zip(candidates, rows)
                          if row == value and pos not in taken), None)
            if found is None:
                raise TransactionError(
                    "replayed delete found no row %r in %r"
                    % (value, table_name)
                )
            taken.add(found[0])
            positions.append(found[0])
            found_rows.append(found[1])
        self._delete_versions(table, positions,
                              Batch.from_rows(found_rows, len(table.schema)))
        return len(positions)

    def do_create_table(self, name: str, schema):
        txn = self.current
        catalog = self._db.catalog
        table = catalog.create_table(name, schema)
        txn.undo.append(lambda: catalog.uninstall_table(name))
        if txn.log_redo:
            txn.redo.append({
                "op": "create_table", "name": table.name,
                "columns": [[col.name, col.dtype.value, col.width]
                            for col in schema],
            })
        return table

    def do_drop_table(self, name: str) -> None:
        txn = self.current
        catalog = self._db.catalog
        table = catalog.table(name)
        stats = catalog.stats_entry(name)
        site = catalog.site_entry(name)
        catalog.drop_table(name)
        txn.undo.append(
            lambda: catalog.install_table(table, stats=stats, site=site))
        if txn.log_redo:
            txn.redo.append({"op": "drop", "kind": "table",
                             "name": table.name})

    def do_create_view(self, name: str, sql_text: str,
                       column_aliases=None, recursive: bool = False):
        txn = self.current
        catalog = self._db.catalog
        view = catalog.create_view(name, sql_text, column_aliases,
                                   recursive=recursive)
        txn.undo.append(lambda: catalog.uninstall_view(name))
        if txn.log_redo:
            txn.redo.append({
                "op": "create_view", "name": view.name, "sql": sql_text,
                "aliases": list(column_aliases) if column_aliases
                else None,
                "recursive": recursive,
            })
        return view

    def do_drop_view(self, name: str) -> None:
        txn = self.current
        catalog = self._db.catalog
        view = catalog.view(name)
        catalog.drop_view(name)
        txn.undo.append(lambda: catalog.install_view(view))
        if txn.log_redo:
            txn.redo.append({"op": "drop", "kind": "view",
                             "name": view.name})

    def do_create_index(self, table_name: str, column: str,
                        kind: str) -> None:
        txn = self.current
        catalog = self._db.catalog
        table = catalog.table(table_name)
        table.create_index(column, kind)
        txn.undo.append(lambda: table.drop_index(column))
        if txn.log_redo:
            txn.redo.append({"op": "create_index", "table": table.name,
                             "column": column, "kind": kind})

    def do_analyze(self, name: Optional[str] = None) -> None:
        txn = self.current
        # catalog.analyze fires the analyze listener, which registers
        # the undo (shared with the planner's lazy stats builds)
        self._db.catalog.analyze(name)
        if txn.log_redo:
            txn.redo.append({"op": "analyze", "name": name})

    def _on_analyze(self, name: Optional[str], snapshot: dict) -> None:
        """Catalog analyze listener: inside any transaction — including
        a lazy, planner-triggered analyze during an explicit one —
        register an undo that reinstates the prior stats entries."""
        txn = self.current
        if txn is None:
            return
        catalog = self._db.catalog
        txn.undo.append(
            lambda: catalog.restore_stats(snapshot, name))

    # ------------------------------------------------------- checkpoint

    def checkpoint(self) -> dict:
        """Write a snapshot checkpoint and truncate the WAL to it.

        Refused while *any* session holds an open transaction: the
        snapshot must contain exactly the committed state, and an open
        transaction's stamped versions would either leak in or leave
        the WAL without their redo.
        """
        open_txn = self.any_open_txn()
        if open_txn is not None:
            raise TransactionError(
                "cannot checkpoint inside a transaction (%s holds "
                "uncommitted changes)" % open_txn.name
            )
        if self.durability == "off":
            raise TransactionError(
                "checkpointing requires durability 'lazy' or 'commit' "
                "(db.configure(durability=...))"
            )
        wal = self.wal()
        record = {
            "op": "checkpoint",
            "commits": self.wal_commits,
            "state": state_dict(self._db),
        }
        wal.checkpoint(record)
        self._db.metrics_registry.inc("checkpoints_total")
        self._db.event_log.emit("checkpoint",
                                commits=self.wal_commits,
                                size_bytes=wal.storage.size())
        return record

    # ----------------------------------------------------------- status

    def status(self) -> dict:
        """Shell/\\txn view of the transaction state."""
        txn = self.current
        info = {
            "active": txn is not None,
            "txn": txn.name if txn else None,
            "aborted": bool(txn and txn.aborted),
            "statements": txn.statements if txn else 0,
            "savepoints": [sp.name for sp in txn.savepoints] if txn
            else [],
            "on_error": self.on_error,
            "durability": self.durability,
            "wal_commits": self.wal_commits,
            "session": self._active.name,
            "sessions": len(self._sessions),
            "mvcc": self._mvcc.status(),
        }
        if self._wal is not None:
            info["wal"] = self._wal.stats()
        return info

    def sessions_overview(self) -> List[dict]:
        """One summary dict per live session — the server's ``sessions``
        admin request and the shell's ``\\sessions`` view. Call under
        the database statement lock."""
        out = []
        for state in self._sessions:
            txn = state.txn
            out.append({
                "session": state.name,
                "bound": state is self._active,
                "in_transaction": txn is not None,
                "txn": txn.name if txn else None,
                "aborted": bool(txn and txn.aborted),
                "statements": txn.statements if txn else 0,
            })
        return out
