"""Snapshot bookkeeping for multi-version concurrency control.

Tables keep every row version at its own physical position and stamp
versions with the transaction that created them (``xmin``) and, once
deleted or superseded, the transaction that removed them (``xmax``).
This module owns the *temporal* side of that scheme: which transaction
ids a given reader is allowed to see.

The design rides the engine's statement-granularity execution model —
a global lock serializes statements, so MVCC only has to answer
visibility questions *between* statements of concurrent transactions,
never mid-statement. That buys three big simplifications:

- A :class:`Snapshot` is just ``(reader txn id, commit sequence
  number)``. A version stamped by transaction ``t`` is visible when
  ``t`` is the reader itself or ``t`` committed at or before the
  snapshot's sequence number.
- Commit sequence numbers live in one dict (``commit_seq``); rolled
  back transactions simply never appear in it, so their stamps are
  invisible to everyone forever.
- **Freezing**: once a committed transaction is visible to every live
  snapshot (its commit seq is at or below the oldest live snapshot's),
  its version stamps carry no information any more. Its ``xmin``
  stamps are rewritten to ``0`` ("frozen", visible to all) and its
  ``xmax`` stamps to ``0`` ("frozen-dead", visible to none, ready for
  vacuum), and its commit is dropped from ``commit_seq``. So the ids a
  snapshot sees (:meth:`Snapshot.seen_ids`) are the reader's own and
  the few unfrozen commits, and a table decides visibility by
  comparing its stamp arrays with them. A quiesced table — every
  version frozen-created, none deleted — keeps no stamp arrays and
  hides nothing, so a scan reads its columnar base with no per-row
  visibility work.

Vacuum (physical reclamation of frozen-dead versions) lives on
:class:`~repro.storage.table.Table`; the manager triggers it when no
transaction is live, because undo closures capture row positions and
compaction would invalidate them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Sentinel transaction id. As an ``xmin`` it means "frozen": the
#: version predates every live snapshot and is visible to all. As an
#: ``xmax`` it means "frozen-dead": the deletion predates every live
#: snapshot, so the version is visible to none and vacuum may reclaim
#: the slot.
FROZEN = 0

#: The ``xmax`` of a version nobody has deleted.
NOT_DELETED = -1


class Snapshot:
    """An immutable read view: everything committed at or before
    ``seq``, plus the reader's own uncommitted work."""

    __slots__ = ("mvcc", "txn_id", "seq")

    def __init__(self, mvcc: "MVCCState", txn_id: Optional[int],
                 seq: int):
        self.mvcc = mvcc
        self.txn_id = txn_id
        self.seq = seq

    def sees(self, txn_id: int) -> bool:
        """Is a version stamped by ``txn_id`` inside this snapshot?"""
        if txn_id == self.txn_id:
            return True  # your own writes are always visible to you
        seq = self.mvcc.commit_seq.get(txn_id)
        return seq is not None and seq <= self.seq

    def seen_ids(self) -> List[int]:
        """The unfrozen transaction ids this snapshot :meth:`sees`: the
        reader's own, plus the unfrozen commits at or before ``seq``
        (a frozen commit's stamps already read FROZEN)."""
        seen = [txn_id for txn_id in self.mvcc.commit_seq
                if self.sees(txn_id)]
        if self.txn_id is not None and self.txn_id not in seen:
            seen.append(self.txn_id)
        return seen

    def __repr__(self) -> str:
        return "Snapshot(txn=%s, seq=%d)" % (self.txn_id, self.seq)


class MVCCState:
    """Commit ordering + live-snapshot registry for one catalog."""

    def __init__(self):
        #: txn id -> commit sequence number, for every committed
        #: transaction whose stamps have not been frozen yet
        self.commit_seq: Dict[int, int] = {}
        self.last_seq = 0
        #: txn id -> Snapshot, for every open *explicit* transaction.
        #: Implicit (single-statement) transactions never register:
        #: they begin and commit under the statement lock, so no other
        #: snapshot can observe their in-flight state.
        self.live: Dict[int, Snapshot] = {}
        #: the snapshot the currently-executing statement reads under
        #: (set and cleared by the statement scope in database.py)
        self.active: Optional[Snapshot] = None
        #: committed-but-unfrozen transactions, in commit order:
        #: (commit seq, txn id, tables it stamped)
        self._recent: List[Tuple[int, int, tuple]] = []
        #: set by the TransactionManager so read_view() can attribute
        #: reads to the current transaction even when no statement
        #: snapshot is active (direct API calls inside BEGIN)
        self.manager = None

    # ------------------------------------------------------- snapshots

    def snapshot(self, txn_id: Optional[int]) -> Snapshot:
        return Snapshot(self, txn_id, self.last_seq)

    def register(self, txn_id: int) -> Snapshot:
        """Pin a begin-snapshot for an explicit transaction."""
        snap = self.snapshot(txn_id)
        self.live[txn_id] = snap
        return snap

    def refresh(self, txn_id: int) -> Snapshot:
        """Re-pin to the latest commit seq (read-committed mode takes
        a fresh snapshot per statement instead of per transaction)."""
        return self.register(txn_id)

    def deregister(self, txn_id: int) -> None:
        self.live.pop(txn_id, None)

    def read_view(self) -> Snapshot:
        """The snapshot reads should use right now: the active
        statement snapshot, else an on-the-spot view attributed to the
        bound session's open transaction (if any)."""
        if self.active is not None:
            return self.active
        txn_id = None
        if self.manager is not None:
            txn = self.manager.current
            if txn is not None:
                txn_id = txn.id
        return self.snapshot(txn_id)

    def oldest_live_seq(self) -> Optional[int]:
        if not self.live:
            return None
        return min(snap.seq for snap in self.live.values())

    # --------------------------------------------------------- commits

    def record_commit(self, txn_id: int, tables) -> None:
        """Assign the next commit sequence number and freeze whatever
        the new horizon allows."""
        self.last_seq += 1
        self.commit_seq[txn_id] = self.last_seq
        self._recent.append((self.last_seq, txn_id, tuple(tables)))
        self.freeze()

    def freeze(self) -> None:
        """Rewrite stamps of commits now visible to every live
        snapshot to the FROZEN sentinel and drop their bookkeeping."""
        if not self._recent:
            return
        horizon = self.oldest_live_seq()
        while self._recent and (horizon is None
                                or self._recent[0][0] <= horizon):
            _seq, txn_id, tables = self._recent.pop(0)
            for table in tables:
                table.freeze_txn(txn_id)
            self.commit_seq.pop(txn_id, None)

    def status(self) -> dict:
        return {
            "last_seq": self.last_seq,
            "live": sorted(self.live),
            "unfrozen_commits": len(self._recent),
        }
