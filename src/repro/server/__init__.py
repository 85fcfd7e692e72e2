"""Client/server serving layer: an asyncio SQL server over sessions.

``python -m repro serve`` starts a TCP server whose wire format is
length-prefixed JSON frames (see :mod:`repro.server.protocol`). Each
connection gets its own :class:`~repro.database.Session` — transactions
are per-connection, snapshot-isolated by MVCC — while the catalog, plan
cache, metrics registry, and event log are shared. The event loop runs
each statement itself, to completion, between socket reads: one thread,
no worker pool.

    from repro.server import Server, Client

    server = await Server(db).start()
    client = Client(*server.address)
    client.sql("SELECT 1 AS one").rows   # [(1,)]
"""

from .client import Client, ClientResult
from .protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    error_payload,
    frame_length,
    result_payload,
)
from .server import Server
from .top import fetch_snapshot, render_top

__all__ = [
    "fetch_snapshot",
    "render_top",
    "Client",
    "ClientResult",
    "HEADER",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "Server",
    "decode_payload",
    "encode_frame",
    "error_payload",
    "frame_length",
    "result_payload",
]
