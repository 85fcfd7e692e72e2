"""The wire protocol: length-prefixed JSON frames.

One frame is a 4-byte little-endian unsigned length followed by that
many bytes of UTF-8 JSON encoding one object — the same framing idiom
as the WAL's records (:mod:`repro.txn.wal`), minus the checksum: TCP
already guarantees integrity, the prefix only delimits messages.

Requests are ``{"id": n, "op": ..., ...}``; the ``id`` is echoed on the
response so a client can pipeline. Ops:

========  =====================================  =======================
op        request fields                         response fields (ok)
========  =====================================  =======================
sql       ``sql`` (statement text)               ``rows``, ``columns``,
                                                 ``kind``, ``elapsed``,
                                                 ``cached_plan``
script    ``sql`` (';'-separated script)         ``results`` (list of
                                                 sql-shaped payloads)
ping      —                                      ``pong: true``
status    —                                      ``status`` (this
                                                 session's txn view)
metrics   —                                      ``metrics``
sessions  —                                      ``sessions`` (one dict
                                                 per live connection:
                                                 its transaction state,
                                                 read between
                                                 statements)
slowlog   ``limit`` (optional int, 1..1000)      ``slowlog`` (slowest
                                                 statement records,
                                                 each with the full
                                                 plan + span trace)
drift     —                                      ``drift`` (the drift
                                                 report, worst
                                                 operators/tables
                                                 first)
close     —                                      ``closed: true``
========  =====================================  =======================

Every response carries ``ok``. On failure ``ok`` is false and
``error``/``message`` name the typed error (e.g.
``SerializationError``); the client re-raises the matching class from
:mod:`repro.errors`. A request-level problem (unknown op, missing
field, a response over :data:`MAX_FRAME_BYTES`) is answered in-band
and the connection stays usable; a stream-level problem (bad length
prefix, invalid JSON) is unrecoverable mid-stream, so the server
answers once and drops the connection.
"""

from __future__ import annotations

import json
import struct

from ..errors import ProtocolError

#: bump when the frame layout or required fields change
PROTOCOL_VERSION = 1

#: 4-byte little-endian unsigned payload length
HEADER = struct.Struct("<I")

#: refuse absurd frames before allocating for them (also what keeps a
#: garbage length prefix from stalling a read forever)
MAX_FRAME_BYTES = 16 * 1024 * 1024


def encode_frame(payload: dict) -> bytes:
    """One object as a complete wire frame (header + JSON bytes)."""
    data = json.dumps(payload, separators=(",", ":"),
                      default=str).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit"
            % (len(data), MAX_FRAME_BYTES)
        )
    return HEADER.pack(len(data)) + data


def frame_length(header: bytes) -> int:
    """Validate a header and return the payload length."""
    if len(header) != HEADER.size:
        raise ProtocolError(
            "truncated frame header (%d of %d bytes)"
            % (len(header), HEADER.size)
        )
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit"
            % (length, MAX_FRAME_BYTES)
        )
    return length


def decode_payload(data: bytes) -> dict:
    """Frame payload bytes -> the request/response object."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("frame payload is not valid JSON: %s" % exc)
    if not isinstance(payload, dict):
        raise ProtocolError(
            "frame payload must be a JSON object, got %s"
            % type(payload).__name__
        )
    return payload


def result_payload(result) -> dict:
    """A :class:`~repro.database.QueryResult` as a response payload."""
    return {
        "ok": True,
        "rows": [list(row) for row in result.rows],
        "columns": result.columns,
        "kind": result.statement_kind,
        "elapsed": round(result.elapsed_seconds, 6),
        "cached_plan": result.cached_plan,
    }


def error_payload(exc: BaseException) -> dict:
    """An exception as a typed error response."""
    return {
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
