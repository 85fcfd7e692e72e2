"""Crash recovery: rebuild a fresh Database from surviving WAL bytes.

Recovery is a pure function of the log: scan the surviving bytes,
(optionally) load the last checkpoint snapshot, then replay every
transaction whose *commit record* survived, in commit order, through
the public Database API — the same code path that produced the state in
the first place, so recovered rows, index contents and statistics are
byte-identical to what a committed-only run would have built.
Transactions whose commit record did not make it to disk (the
uncommitted tail, including a torn final record) are discarded: that
is the atomicity guarantee after a crash.

The replayed database has durability off — recovery itself must not
write a WAL. Re-enable durability (and attach a fresh or truncated log)
after recovery succeeds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import WalError
from .state import load_state
from .wal import WalStorage, iter_records, split_header


@dataclass
class RecoveryReport:
    """What recovery found in the log and what it did about it."""

    #: whole, checksum-valid records scanned (including any checkpoint)
    records_scanned: int = 0
    #: a checkpoint snapshot was loaded as the base state
    checkpoint_used: bool = False
    #: commits folded into the checkpoint before it was taken
    checkpoint_commits: int = 0
    #: transactions replayed from post-checkpoint commit records
    commits_replayed: int = 0
    #: operation records belonging to transactions with no commit
    #: record — the uncommitted tail, discarded by recovery
    discarded_records: int = 0
    #: bytes of torn/garbage suffix ignored by the scan
    torn_bytes: int = 0
    #: transaction ids replayed, in commit order
    replayed_txns: List[int] = field(default_factory=list)

    @property
    def total_commits(self) -> int:
        """Commit count to resume the WAL-commit counter from."""
        return self.checkpoint_commits + self.commits_replayed


def scan(data: bytes) -> Tuple[Optional[dict], List[Tuple[int, List[dict]]],
                               RecoveryReport]:
    """Parse surviving WAL bytes into recovery inputs.

    Returns ``(checkpoint_state, committed, report)`` where
    ``committed`` is ``[(txn_id, [op_record, ...]), ...]`` in commit
    order. Tolerates an empty/torn-header log (fresh database) and a
    torn final record (scan stops there); raises :class:`WalError` only
    for a log whose magic actively mismatches.
    """
    report = RecoveryReport()
    body = split_header(data)
    if body is None:
        report.torn_bytes = len(data)
        return None, [], report
    checkpoint_state: Optional[dict] = None
    committed: List[Tuple[int, List[dict]]] = []
    pending: Dict[int, List[dict]] = {}
    end = 0
    for record, end in iter_records(body):
        report.records_scanned += 1
        op = record.get("op")
        if op == "checkpoint":
            # a checkpoint supersedes everything scanned before it
            checkpoint_state = record["state"]
            report.checkpoint_used = True
            report.checkpoint_commits = record.get("commits", 0)
            committed.clear()
            pending.clear()
        elif op == "commit":
            committed.append((record["t"], pending.pop(record["t"], [])))
        else:
            pending.setdefault(record["t"], []).append(record)
    report.torn_bytes = len(body) - end
    report.commits_replayed = len(committed)
    report.discarded_records = sum(len(ops) for ops in pending.values())
    report.replayed_txns = [txn_id for txn_id, _ in committed]
    return checkpoint_state, committed, report


def _replay_op(db, record: dict) -> None:
    op = record["op"]
    if op == "insert":
        db.insert(record["table"], [tuple(row) for row in record["rows"]])
    elif op == "delete_rows":
        # logical UPDATE/DELETE record: remove the first visible
        # occurrence of each value — deterministic over the
        # committed-prefix state being rebuilt
        db.delete_rows(record["table"],
                       [tuple(row) for row in record["rows"]])
    elif op == "create_table":
        from ..storage.schema import Column, DataType, Schema
        db.create_table(record["name"], Schema(
            Column(name, DataType(dtype), width)
            for name, dtype, width in record["columns"]
        ))
    elif op == "create_index":
        db.create_index(record["table"], record["column"], record["kind"])
    elif op == "create_view":
        db.create_view(record["name"], record["sql"], record["aliases"],
                       recursive=record["recursive"])
    elif op == "drop":
        if record["kind"] == "table":
            db.drop_table(record["name"])
        else:
            db.drop_view(record["name"])
    elif op == "analyze":
        db.analyze(record["name"])
    else:
        raise WalError("unknown WAL operation %r" % op)


def recover(source, config=None, log_events: bool = False):
    """Rebuild a fresh :class:`~repro.Database` from WAL bytes.

    ``source`` is the surviving log: raw ``bytes``, a
    :class:`~repro.txn.wal.WalStorage`, or a file path. Returns
    ``(db, report)``. ``log_events=True`` enables the new database's
    event log so the ``recovery`` event is observable.
    """
    if isinstance(source, WalStorage):
        data = source.read_all()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            data = handle.read()
    else:
        raise WalError(
            "recover() takes WAL bytes, a WalStorage, or a path; got %s"
            % type(source).__name__
        )
    checkpoint_state, committed, report = scan(data)

    from ..database import Database
    db = Database(config=config)
    db.configure(durability="off")
    if log_events:
        db.event_log.enable()
    if checkpoint_state is not None:
        load_state(db, checkpoint_state)
    for txn_id, ops in committed:
        for record in ops:
            _replay_op(db, record)
    db.txn.wal_commits = report.total_commits
    db.event_log.emit(
        "recovery",
        commits_replayed=report.commits_replayed,
        checkpoint=report.checkpoint_used,
        discarded_records=report.discarded_records,
        torn_bytes=report.torn_bytes,
    )
    return db, report
