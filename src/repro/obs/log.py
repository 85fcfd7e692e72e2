"""Structured event log: the query lifecycle as JSON-lines.

Where spans (:mod:`~repro.obs.trace`) dissect *one* statement in depth,
the :class:`EventLog` records the *stream* of statements: every query's
``query_start -> parse -> optimize | plan_cache -> execute ->
query_end`` chain (plus ``retry``/``degradation``/``error`` from the
distributed engine) as flat, timestamped events sharing a query id.
One query's history greps cleanly out of a mixed log, and the whole
buffer exports as JSON-lines for external tooling.

Logging is off by default and ``emit`` bails on a single attribute
check, so the hot path pays nothing until ``db.event_log.enable()`` is
called (the opttrace overhead benchmark enforces this). ``enable`` may
tee every event to a file-like sink as it is recorded. A statement's
chain is not emitted as it happens: ``Database._observe`` emits it from
the statement's record (:meth:`QueryLogEntry.events`) when the
statement ends, so a chain is contiguous in the buffer and its ``ts``
values are the record's start plus phase offsets.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Callable, List, Optional, TextIO

#: events a single successful query may emit, in order
QUERY_EVENT_ORDER = (
    "query_start", "parse", "optimize", "plan_cache", "execute",
    "retry", "degradation", "error", "query_end",
)

#: transaction-lifecycle events (emitted by the transaction manager and
#: recovery). They carry a stable transaction id (``txn="t3"``) instead
#: of a query id, so they never interleave into a query's event chain.
TXN_EVENT_NAMES = (
    "txn_begin", "txn_commit", "txn_rollback", "checkpoint", "recovery",
)


class EventLog:
    """A bounded ring buffer of structured query-lifecycle events.

    Every event is a flat dict with ``ts`` (epoch seconds), ``event``
    (one of :data:`QUERY_EVENT_ORDER`), usually a ``query_id``
    (``"q1"``, ``"q2"``, ... assigned per statement), and event-specific
    fields. Old events age out at ``capacity``.
    """

    def __init__(self, capacity: int = 4096,
                 clock: Callable[[], float] = time.time):
        self.enabled = False
        self.capacity = capacity
        self.clock = clock
        self._events: deque = deque(maxlen=capacity)
        self._query_ids = itertools.count(1)
        self._sink: Optional[TextIO] = None
        # shared by every session of a served database: the lock keeps
        # append order and sink lines consistent across threads (emit
        # still bails on the ``enabled`` check before touching it)
        self._lock = threading.Lock()

    # ------------------------------------------------------------ control

    def enable(self, sink: Optional[TextIO] = None) -> "EventLog":
        """Turn recording on; ``sink`` (optional, file-like) receives
        every event as one JSON line the moment it is emitted."""
        self.enabled = True
        self._sink = sink
        return self

    def disable(self) -> None:
        self.enabled = False
        self._sink = None

    def clear(self) -> None:
        self._events.clear()

    # ---------------------------------------------------------- recording

    def new_query_id(self) -> str:
        return "q%d" % next(self._query_ids)

    def emit(self, event: str, query_id: Optional[str] = None,
             ts: Optional[float] = None, **fields) -> Optional[dict]:
        """Record one event; returns the record, or None when disabled.
        ``ts`` backdates it: a statement's chain is emitted when the
        statement ends, each event stamped start + its phase offset."""
        if not self.enabled:
            return None
        record = {"ts": round(self.clock() if ts is None else ts, 6),
                  "event": event}
        if query_id is not None:
            record["query_id"] = query_id
        record.update(fields)
        with self._lock:
            self._events.append(record)
            if self._sink is not None:
                self._sink.write(json.dumps(record, sort_keys=True,
                                            default=str) + "\n")
        return record

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self._events)

    def events(self, event: Optional[str] = None,
               query_id: Optional[str] = None) -> List[dict]:
        """The buffered events, optionally filtered by type or query."""
        out = list(self._events)
        if event is not None:
            out = [e for e in out if e["event"] == event]
        if query_id is not None:
            out = [e for e in out if e.get("query_id") == query_id]
        return out

    def to_jsonl(self) -> str:
        """The buffer as JSON-lines (one event per line)."""
        return "\n".join(
            json.dumps(event, sort_keys=True, default=str)
            for event in self._events
        )

    def render(self, limit: int = 25) -> str:
        """Human-readable tail of the log (the shell's ``\\log``)."""
        if not self._events:
            return ("(event log %s, no events recorded)"
                    % ("enabled" if self.enabled else "disabled"))
        events = list(self._events)[-limit:]
        lines = []
        if len(self._events) > len(events):
            lines.append("... (%d earlier events)"
                         % (len(self._events) - len(events)))
        for event in events:
            extras = "  ".join(
                "%s=%s" % (key, value)
                for key, value in event.items()
                if key not in ("ts", "event", "query_id")
            )
            lines.append("%-12.6f %-6s %-12s %s"
                         % (event["ts"] % 1e6,
                            event.get("query_id", "-"),
                            event["event"], extras))
        return "\n".join(lines)
