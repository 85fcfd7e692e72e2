"""A small synchronous client for the repro server.

Blocking sockets, one request in flight at a time — deliberately plain,
so tests and benchmarks can drive many of them from plain threads. The
typed error contract survives the wire: an ``ok: false`` response names
the error class, and the client re-raises the matching type from
:mod:`repro.errors` (a :class:`~repro.errors.SerializationError` on the
server is a ``SerializationError`` here too).
"""

from __future__ import annotations

import itertools
import socket
from typing import List, Optional, Tuple

from ..errors import ProtocolError, ReproError
from .protocol import HEADER, decode_payload, encode_frame, frame_length


def _error_types() -> dict:
    """Every ReproError subclass by name, for re-raising responses."""
    out = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        out[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    return out


class ClientResult:
    """The client-side shape of one statement's result."""

    def __init__(self, payload: dict):
        self.rows: List[tuple] = [tuple(row)
                                  for row in payload.get("rows", [])]
        self.columns: List[str] = payload.get("columns", [])
        self.statement_kind: str = payload.get("kind", "select")
        self.elapsed_seconds: float = payload.get("elapsed", 0.0)
        self.cached_plan: bool = payload.get("cached_plan", False)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return "ClientResult(%d rows, kind=%r)" % (
            len(self.rows), self.statement_kind)


class Client:
    """One connection to a :class:`~repro.server.Server`.

    Usable as a context manager; :meth:`close` sends the protocol
    goodbye (the server rolls back any open transaction either way,
    exactly as an abrupt disconnect would)::

        with Client(host, port) as client:
            client.sql("BEGIN")
            client.sql("INSERT INTO t VALUES (1)")
            client.sql("COMMIT")
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: Optional[float] = 30.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._ids = itertools.count(1)
        self.closed = False
        greeting = self._read_frame()
        self.conn_id: str = greeting.get("conn_id", "")
        self.protocol: int = greeting.get("protocol", 0)

    # ------------------------------------------------------------ framing

    def _read_exact(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise ProtocolError(
                    "server closed the connection mid-frame")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> dict:
        length = frame_length(self._read_exact(HEADER.size))
        return decode_payload(self._read_exact(length))

    def request(self, op: str, **fields) -> dict:
        """Send one request and return the (ok) response payload,
        re-raising the typed error on an ``ok: false`` response."""
        if self.closed:
            raise ProtocolError("client is closed")
        request = {"id": next(self._ids), "op": op}
        request.update(fields)
        self._sock.sendall(encode_frame(request))
        response = self._read_frame()
        if response.get("id") not in (None, request["id"]):
            raise ProtocolError(
                "response id %r does not match request id %r"
                % (response.get("id"), request["id"])
            )
        if not response.get("ok"):
            error_type = _ERROR_TYPES.get(response.get("error", ""),
                                          ReproError)
            raise error_type(response.get("message",
                                          "server reported an error"))
        return response

    # ------------------------------------------------------------- verbs

    def sql(self, text: str) -> ClientResult:
        """Execute one statement in this connection's session."""
        return ClientResult(self.request("sql", sql=text))

    def execute_script(self, text: str) -> List[ClientResult]:
        response = self.request("script", sql=text)
        return [ClientResult(payload)
                for payload in response["results"]]

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def status(self) -> dict:
        """This session's transaction status (the shell's ``\\txn``)."""
        return self.request("status")["status"]

    def metrics(self) -> dict:
        return self.request("metrics")["metrics"]

    def sessions(self) -> List[dict]:
        """Every live connection's session state, including the
        statement each one is executing right now (``repro top``'s
        session pane)."""
        return self.request("sessions")["sessions"]

    def slowlog(self, limit: int = 20) -> List[dict]:
        """The server's slow-query records (statements that crossed
        ``slow_query_seconds``), worst first, each with its phase
        seconds, the full plan text and, for a query, the span
        trace."""
        return self.request("slowlog", limit=limit)["slowlog"]

    def drift(self) -> dict:
        """The server's drift report (estimate quality over the recent
        statement window)."""
        return self.request("drift")["drift"]

    def close(self) -> None:
        """Send the goodbye and close the socket (idempotent)."""
        if self.closed:
            return
        try:
            self.request("close")
        except (ReproError, OSError):
            pass  # closing is best-effort; the socket drop suffices
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return "Client(conn_id=%r, %s)" % (self.conn_id, state)


_ERROR_TYPES = _error_types()
