"""The asyncio SQL server: one session per connection, shared engine.

The event loop owns only the sockets; every engine call (``new_session``,
statement execution, ``close``) is pushed onto a small thread pool, where
the database's statement lock serializes actual execution. Isolation
between connections is therefore exactly the embedded engine's MVCC
story — the server adds no second concurrency model.

Connection ids ("c1", "c2", ...) double as session names, so event-log
records join across the layers: ``conn_open``/``conn_close`` events
carry the same name that ``query_start`` records report as ``session``.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Dict, Optional, Tuple

from ..errors import ProtocolError, ReproError
from ..obs.querylog import one_line
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

    def __init__(self, db, host: str = "127.0.0.1", port: int = 0,
                 max_workers: int = 8):
        self.db = db
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve")
        self._conn_ids = itertools.count(1)
        #: currently open connections
        self.connections = 0
        #: connections ever accepted
        self.total_connections = 0
        #: connection name -> the statement it is executing right now
        #: (written from the event loop only; read by ``sessions``)
        self.inflight: Dict[str, dict] = {}

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
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and release the worker pool.
        In-flight statements finish; their connections then find the
        socket closed."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False)

    # -------------------------------------------------------- connection

    async def _engine(self, fn, *args, **kwargs):
        """Run a blocking engine call on the worker pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, partial(fn, *args, **kwargs))

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = "c%d" % next(self._conn_ids)
        self.connections += 1
        self.total_connections += 1
        self.db.metrics_registry.inc("server_connections_total")
        self.db.event_log.emit("conn_open", conn=conn)
        session = None
        try:
            session = await self._engine(self.db.new_session, conn)
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
            if session is not None:
                try:
                    await self._engine(session.close)
                except RuntimeError:
                    # the pool is gone (server/process shutdown);
                    # close inline so the txn still rolls back
                    session.close()
            self.connections -= 1
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
            response = await self._respond(session, request)
            writer.write(encode_frame(response))
            await writer.drain()
            if request.get("op") == "close":
                return

    # ----------------------------------------------------------- request

    async def _respond(self, session, request: dict) -> dict:
        op = request.get("op", "sql")
        try:
            payload = await self._dispatch(session, op, request)
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
        if "id" in request:
            payload["id"] = request["id"]
        return payload

    async def _dispatch(self, session, op: str, request: dict) -> dict:
        if op == "sql":
            result = await self._run_statement(
                session, session.sql, self._sql_text(request))
            self.db.metrics_registry.inc("server_statements_total")
            return result_payload(result)
        if op == "script":
            results = await self._run_statement(
                session, session.execute_script, self._sql_text(request))
            self.db.metrics_registry.inc("server_statements_total",
                                         amount=len(results))
            return {"ok": True,
                    "results": [result_payload(r) for r in results]}
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "status":
            status = await self._engine(session._run, self.db.txn.status)
            return {"ok": True, "status": status}
        if op == "metrics":
            return {"ok": True, "metrics": self.db.metrics()}
        if op == "sessions":
            return {"ok": True, "sessions": await self._sessions_payload()}
        if op == "slowlog":
            limit = self._admin_limit(request, default=20)
            return {"ok": True,
                    "slowlog": [entry.as_dict() for entry
                                in self.db.querylog.slowest(limit)]}
        if op == "drift":
            report = await self._engine(self.db.drift_report)
            return {"ok": True, "drift": report.as_dict()}
        if op == "close":
            return {"ok": True, "closed": True}
        raise ProtocolError("unknown request op %r" % op)

    async def _run_statement(self, session, method, text: str):
        """Run a sql/script engine call with in-flight bookkeeping, so
        the ``sessions`` admin view can show what each connection is
        executing right now."""
        self.inflight[session.name] = {"sql": text,
                                       "started": time.time()}
        try:
            return await self._engine(method, text)
        finally:
            self.inflight.pop(session.name, None)

    async def _sessions_payload(self) -> list:
        def snapshot():
            with self.db._lock:
                return self.db.txn.sessions_overview()

        overview = await self._engine(snapshot)
        now = time.time()
        for entry in overview:
            running = self.inflight.get(entry["session"])
            entry["running"] = (one_line(running["sql"], 200)
                                if running else None)
            entry["running_seconds"] = (
                round(now - running["started"], 3) if running else None)
        return overview

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
