"""The asyncio SQL server: one session per connection, shared engine.

The event loop runs every engine call (``new_session``, statement
execution, the admin ops, ``close``) itself, to completion, between two
socket reads. The database's statement lock already serializes every
statement, so a worker pool would add a thread hop per request and buy
no parallelism. Isolation between connections is exactly the embedded
engine's MVCC story — the server adds no second concurrency model. The
price: while one statement runs, every other connection's request,
``ping`` and ``metrics`` included, waits for it.

Connection ids ("c1", "c2", ...) double as session names, so event-log
records join across the layers: ``conn_open``/``conn_close`` events
carry the same name that ``query_start`` records report as ``session``.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional, Tuple

from ..errors import ProtocolError, ReproError
from .protocol import (
    HEADER,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    error_payload,
    frame_length,
    result_payload,
)


class Server:
    """Serve one :class:`~repro.database.Database` over TCP.

    ``port=0`` (the default) binds an ephemeral port; read the bound
    address from :attr:`address` after :meth:`start`::

        server = await Server(db).start()
        host, port = server.address
        ...
        await server.stop()
    """

    def __init__(self, db, host: str = "127.0.0.1", port: int = 0):
        self.db = db
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_ids = itertools.count(1)
        #: open connection's writer -> the task serving it
        self._open: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: connections ever accepted
        self.total_connections = 0

    @property
    def connections(self) -> int:
        """Currently open connections."""
        return len(self._open)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return self.host, self.port

    async def start(self) -> "Server":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled; the caller then awaits :meth:`stop`.
        Not ``asyncio.Server.serve_forever``: from Python 3.12 that
        waits, once cancelled, for every open connection to close by
        itself, so a client idle in a transaction would hang it."""
        await asyncio.get_running_loop().create_future()

    async def stop(self) -> None:
        """Stop accepting connections and close the open ones. No
        statement is mid-flight (the loop runs each to completion), so
        every connection is between requests: its session closes and
        rolls back an open transaction, as on a disconnect."""
        if self._server is None:
            return
        self._server.close()
        tasks = list(self._open.values())
        for writer in list(self._open):
            writer.close()
        if tasks:
            await asyncio.wait(tasks)
        await self._server.wait_closed()

    # -------------------------------------------------------- connection

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = "c%d" % next(self._conn_ids)
        self._open[writer] = asyncio.current_task()
        self.total_connections += 1
        self.db.metrics_registry.inc("server_connections_total")
        self.db.event_log.emit("conn_open", conn=conn)
        session = None
        try:
            session = self.db.new_session(conn)
            writer.write(encode_frame({
                "server": "repro",
                "protocol": PROTOCOL_VERSION,
                "conn_id": conn,
            }))
            await writer.drain()
            await self._serve_session(session, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            # client vanished (possibly mid-frame): treated as a
            # disconnect — the session close below rolls back
            pass
        except ProtocolError as exc:
            # the stream itself is unreadable; answer once and drop
            try:
                writer.write(encode_frame(error_payload(exc)))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            del self._open[writer]
            if session is not None:
                session.close()
            self.db.event_log.emit("conn_close", conn=conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_session(self, session, reader, writer) -> None:
        while True:
            header = await reader.readexactly(HEADER.size)
            data = await reader.readexactly(frame_length(header))
            request = decode_payload(data)
            writer.write(self._respond(session, request))
            await writer.drain()
            if request.get("op") == "close":
                return

    # ----------------------------------------------------------- request

    def _respond(self, session, request: dict) -> bytes:
        """The response frame for one request. An oversized result is a
        request-level error like any other: nothing of it was written,
        so the connection and its transaction stay usable."""
        try:
            return self._framed(request, self._dispatch(
                session, request.get("op", "sql"), request))
        except ReproError as exc:
            # typed engine errors (including ProtocolError for a bad
            # request and SerializationError for write conflicts) are
            # answered in-band; the connection stays usable
            self.db.metrics_registry.inc("server_errors_total",
                                         label=type(exc).__name__)
            payload = error_payload(exc)
        except Exception as exc:  # engine bug: report, keep serving
            self.db.metrics_registry.inc("server_errors_total",
                                         label="internal")
            payload = {
                "ok": False,
                "error": "InternalError",
                "message": "%s: %s" % (type(exc).__name__, exc),
            }
        return self._framed(request, payload)

    @staticmethod
    def _framed(request: dict, payload: dict) -> bytes:
        if "id" in request:
            payload["id"] = request["id"]
        return encode_frame(payload)

    def _dispatch(self, session, op: str, request: dict) -> dict:
        if op == "sql":
            result = session.sql(self._sql_text(request))
            self.db.metrics_registry.inc("server_statements_total")
            return result_payload(result)
        if op == "script":
            results = session.execute_script(self._sql_text(request))
            self.db.metrics_registry.inc("server_statements_total",
                                         amount=len(results))
            return {"ok": True,
                    "results": [result_payload(r) for r in results]}
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "status":
            return {"ok": True,
                    "status": session._run(self.db.txn.status)}
        if op == "metrics":
            return {"ok": True, "metrics": self.db.metrics()}
        if op == "sessions":
            with self.db._lock:
                overview = self.db.txn.sessions_overview()
            return {"ok": True, "sessions": overview}
        if op == "slowlog":
            limit = self._admin_limit(request, default=20)
            return {"ok": True,
                    "slowlog": [entry.as_dict() for entry
                                in self.db.querylog.slowest(limit)]}
        if op == "drift":
            return {"ok": True, "drift": self.db.drift_report().as_dict()}
        if op == "close":
            return {"ok": True, "closed": True}
        raise ProtocolError("unknown request op %r" % op)

    @staticmethod
    def _admin_limit(request: dict, default: int) -> int:
        limit = request.get("limit", default)
        if isinstance(limit, bool) or not isinstance(limit, int) \
                or not 1 <= limit <= 1000:
            raise ProtocolError(
                "request field 'limit' must be an integer in [1, 1000], "
                "got %r" % (limit,))
        return limit

    @staticmethod
    def _sql_text(request: dict) -> str:
        text = request.get("sql")
        if not isinstance(text, str):
            raise ProtocolError(
                "request op %r needs a string 'sql' field"
                % request.get("op", "sql")
            )
        return text
