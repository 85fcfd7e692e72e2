"""End-to-end tests for the TCP SQL server and its client.

A real server runs on an ephemeral port in a background event-loop
thread; real :class:`~repro.server.Client` sockets (and, for the
malformed-frame tests, raw sockets) drive it. The contract under test:

- one MVCC session per connection, so snapshot isolation holds across
  the wire exactly as it does embedded;
- typed errors survive serialization — a ``SerializationError`` on the
  server is a ``SerializationError`` in the client;
- request-level garbage (unknown op, missing field) and a result too
  large for one frame are answered in-band and the connection stays
  usable; stream-level garbage (unparseable frame, oversized header)
  gets one error frame and a disconnect;
- every statement runs on the event loop's thread;
- a vanished client's open transaction is rolled back.
"""

import asyncio
import random
import socket
import struct
import threading
import time

import pytest

from repro import (
    BindError,
    Database,
    DataType,
    ProtocolError,
    SerializationError,
    SqlSyntaxError,
)
from repro.server import Client, Server
from repro.server.protocol import HEADER, MAX_FRAME_BYTES, encode_frame
from repro.server.top import render_top


class ServerHarness:
    """A live server on an ephemeral port, driven from a loop thread."""

    def __init__(self, db):
        self.db = db
        self.server = Server(db)
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._ready.set()
        self._loop.run_forever()

    def start(self):
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"
        return self

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop).result(10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        self._loop.close()

    def connect(self, **kwargs) -> Client:
        host, port = self.server.address
        return Client(host, port, **kwargs)

    def raw_socket(self) -> socket.socket:
        """A bare socket that has consumed the greeting frame."""
        sock = socket.create_connection(self.server.address, timeout=10)
        length = struct.unpack("<I", _read_exact(sock, HEADER.size))[0]
        _read_exact(sock, length)
        return sock


def _read_exact(sock, count):
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture()
def harness():
    db = Database()
    db.create_table("t", [("id", DataType.INT), ("v", DataType.INT)])
    db.insert("t", [(1, 10), (2, 20), (3, 30)])
    h = ServerHarness(db).start()
    yield h
    h.stop()


class TestProtocolBasics:
    def test_greeting_ping_and_distinct_conn_ids(self, harness):
        with harness.connect() as a, harness.connect() as b:
            assert a.protocol == 1
            assert a.conn_id and b.conn_id and a.conn_id != b.conn_id
            assert a.ping() and b.ping()

    def test_sql_roundtrip(self, harness):
        with harness.connect() as client:
            result = client.sql("SELECT id, v FROM t WHERE id <= 2")
            assert sorted(result.rows) == [(1, 10), (2, 20)]
            assert result.columns == ["id", "v"]
            assert result.statement_kind == "select"
            assert result.to_dicts()[0].keys() == {"id", "v"}
            count = client.sql("UPDATE t SET v = v + 1 WHERE id = 1")
            assert count.rows == [(1,)]
            assert count.statement_kind == "update"

    def test_script_returns_one_result_per_statement(self, harness):
        with harness.connect() as client:
            results = client.execute_script(
                "INSERT INTO t VALUES (9, 90); SELECT v FROM t "
                "WHERE id = 9;")
            assert len(results) == 2
            assert results[0].statement_kind == "insert"
            assert results[1].rows == [(90,)]

    def test_status_names_this_connections_session(self, harness):
        with harness.connect() as client:
            status = client.status()
            assert status["session"] == client.conn_id
            assert status["active"] is False
            client.sql("BEGIN")
            assert client.status()["active"] is True
            client.sql("ROLLBACK")

    def test_metrics_over_the_wire(self, harness):
        with harness.connect() as client:
            client.sql("SELECT * FROM t")
            metrics = client.metrics()
            assert metrics["server_statements_total"]["total"] >= 1
            assert metrics["server_connections_total"]["total"] >= 1

    def test_close_is_idempotent(self, harness):
        client = harness.connect()
        client.close()
        client.close()
        with pytest.raises(ProtocolError):
            client.sql("SELECT 1 AS x")


class TestIsolationOverTheWire:
    def test_connections_are_snapshot_isolated(self, harness):
        with harness.connect() as a, harness.connect() as b:
            a.sql("BEGIN")
            assert a.sql("SELECT v FROM t WHERE id = 1").rows == [(10,)]
            b.sql("UPDATE t SET v = 99 WHERE id = 1")
            # a's snapshot predates b's commit
            assert a.sql("SELECT v FROM t WHERE id = 1").rows == [(10,)]
            a.sql("COMMIT")
            assert a.sql("SELECT v FROM t WHERE id = 1").rows == [(99,)]

    def test_write_conflict_is_a_typed_serialization_error(self, harness):
        with harness.connect() as a, harness.connect() as b:
            a.sql("BEGIN")
            b.sql("BEGIN")
            a.sql("UPDATE t SET v = 1 WHERE id = 1")
            with pytest.raises(SerializationError):
                b.sql("UPDATE t SET v = 2 WHERE id = 1")
            b.sql("ROLLBACK")
            a.sql("COMMIT")
            # the standard remedy works over the wire too
            b.sql("UPDATE t SET v = 3 WHERE id = 1")
            assert b.sql("SELECT v FROM t WHERE id = 1").rows == [(3,)]

    def test_disconnect_mid_transaction_rolls_back(self, harness):
        doomed = harness.connect()
        doomed.sql("BEGIN")
        doomed.sql("UPDATE t SET v = 777 WHERE id = 1")
        doomed._sock.close()  # vanish without the goodbye
        assert _wait_until(lambda: not harness.db.txn.any_open_txn())
        with harness.connect() as witness:
            rows = witness.sql("SELECT v FROM t WHERE id = 1").rows
            assert rows == [(10,)], "uncommitted write survived"


class TestErrorBoundaries:
    def test_sql_errors_are_typed_and_survivable(self, harness):
        with harness.connect() as client:
            with pytest.raises(SqlSyntaxError):
                client.sql("SELEKT chaos")
            with pytest.raises(BindError):
                client.sql("SELECT * FROM no_such_table")
            assert client.ping(), "connection died after a query error"
            assert len(client.sql("SELECT * FROM t")) == 3

    def test_unknown_op_is_answered_in_band(self, harness):
        with harness.connect() as client:
            with pytest.raises(ProtocolError):
                client.request("transmogrify")
            assert client.ping()

    def test_missing_sql_field_is_answered_in_band(self, harness):
        with harness.connect() as client:
            with pytest.raises(ProtocolError):
                client.request("sql")  # no sql= field
            with pytest.raises(ProtocolError):
                client.request("sql", sql=42)
            assert client.ping()

    def test_unparseable_frame_gets_error_then_disconnect(self, harness):
        sock = harness.raw_socket()
        junk = b"this is not json"
        sock.sendall(struct.pack("<I", len(junk)) + junk)
        length = struct.unpack("<I", _read_exact(sock, HEADER.size))[0]
        response = _read_exact(sock, length)
        assert b"ProtocolError" in response
        assert sock.recv(1) == b"", "stream error should drop the conn"
        sock.close()
        # and the server keeps accepting fresh connections
        with harness.connect() as client:
            assert client.ping()

    def test_oversized_frame_header_is_refused(self, harness):
        sock = harness.raw_socket()
        sock.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
        length = struct.unpack("<I", _read_exact(sock, HEADER.size))[0]
        assert b"ProtocolError" in _read_exact(sock, length)
        assert sock.recv(1) == b""
        sock.close()

    def test_oversized_result_is_answered_in_band(self, harness):
        """A result too large for one frame is a request-level error:
        nothing was written yet, so the connection and its open
        transaction survive."""
        harness.db.create_table("big", [("s", DataType.STR)])
        harness.db.insert("big", [("x" * (9 << 20),), ("y" * (9 << 20),)])
        with harness.connect() as client:
            client.sql("BEGIN")
            client.sql("INSERT INTO t VALUES (8, 80)")
            with pytest.raises(ProtocolError) as info:
                client.sql("SELECT s FROM big")
            assert str(MAX_FRAME_BYTES) in str(info.value)
            assert client.status()["active"] is True
            client.sql("COMMIT")
        with harness.connect() as witness:
            rows = witness.sql("SELECT v FROM t WHERE id = 8").rows
            assert rows == [(80,)], "the open transaction was lost"

    def test_mid_frame_disconnect_rolls_back(self, harness):
        """A client that dies halfway through sending a frame is a
        plain disconnect: no error response, session rolled back."""
        with harness.connect() as client:
            client.sql("BEGIN")
            client.sql("UPDATE t SET v = 555 WHERE id = 2")
            frame = encode_frame({"op": "sql", "sql": "SELECT 1 AS x"})
            client._sock.sendall(frame[:len(frame) - 3])
            client._sock.close()
            client.closed = True
        assert _wait_until(lambda: not harness.db.txn.any_open_txn())
        with harness.connect() as witness:
            rows = witness.sql("SELECT v FROM t WHERE id = 2").rows
            assert rows == [(20,)]


class TestExecutionModel:
    def test_statements_run_on_the_loop_thread(self, harness):
        """Every statement runs on the event loop's own thread: the
        server starts no thread of its own, however many requests it
        serves."""
        seen = set()

        def probe(args):
            seen.add(threading.get_ident())
            return [(args[0] * 2,)]

        harness.db.functions.register_function(
            "probe", [("x", DataType.INT)], [("y", DataType.INT)], probe)
        threads_before = threading.active_count()
        with harness.connect() as client:
            rows = client.sql("SELECT T.id, F.y FROM t T, probe F "
                              "WHERE T.id = F.x").rows
            assert sorted(rows) == [(1, 2), (2, 4), (3, 6)]
            for i in range(100):
                client.sql("SELECT v FROM t WHERE id = %d" % (i % 3 + 1))
            assert threading.active_count() <= threads_before
        assert seen == {harness._thread.ident}


class TestConcurrentClients:
    def test_many_clients_disjoint_writes_all_commit(self, harness):
        harness.db.insert("t", [(100 + i, 0) for i in range(8)])
        errors = []

        def worker(index):
            try:
                with harness.connect() as client:
                    for _ in range(10):
                        client.sql("BEGIN")
                        client.sql("UPDATE t SET v = v + 1 "
                                   "WHERE id = %d" % (100 + index))
                        client.sql("COMMIT")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        with harness.connect() as client:
            rows = client.sql("SELECT id, v FROM t "
                              "WHERE id >= 100").rows
            assert sorted(rows) == [(100 + i, 10) for i in range(8)]
        assert _wait_until(lambda: harness.server.connections == 0)
        assert harness.server.total_connections >= 9

    def test_mixed_traffic_loses_nothing(self):
        """16 clients x 20 seeded requests: point reads, a GROUP BY, and
        every fifth request a read-modify-write transaction on the
        client's own row (disjoint rows, so never a conflict)."""
        clients, requests = 16, 20
        db = Database()
        db.create_table("acct", [("id", DataType.INT),
                                 ("owner", DataType.INT),
                                 ("bal", DataType.INT)])
        db.insert("acct", [(i, i % 10, 100) for i in range(clients + 20)])
        db.analyze("acct")
        harness = ServerHarness(db).start()
        errors = []

        def worker(index):
            rng = random.Random(2026 + index)
            try:
                with harness.connect() as client:
                    for step in range(requests):
                        if step % 5 == 4:
                            client.sql("BEGIN")
                            client.sql("UPDATE acct SET bal = bal + 1 "
                                       "WHERE id = %d" % index)
                            client.sql("COMMIT")
                        elif rng.random() < 0.2:
                            client.sql("SELECT owner, SUM(bal) AS s "
                                       "FROM acct GROUP BY owner")
                        else:
                            client.sql("SELECT bal FROM acct WHERE id = %d"
                                       % rng.randrange(clients + 20))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(clients)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, "first client error: %r (of %d)" % (
                errors[0], len(errors))
            assert harness.server.total_connections >= clients
        finally:
            harness.stop()
        rows = db.sql("SELECT bal FROM acct WHERE id < %d" % clients).rows
        assert rows == [(100 + requests // 5,)] * clients
        assert not db.txn.any_open_txn(), "a session leaked a transaction"


class TestAdminSurface:
    def test_sessions_lists_every_connection(self, harness):
        with harness.connect() as a, harness.connect() as b:
            a.sql("BEGIN")
            a.sql("INSERT INTO t VALUES (7, 70)")
            overview = {entry["session"]: entry for entry in b.sessions()}
            assert a.conn_id in overview and b.conn_id in overview
            mine = overview[a.conn_id]
            assert mine["in_transaction"] and not mine["aborted"]
            assert mine["statements"] >= 1
            # the wire shape: a statement never runs while we look, so
            # there is no in-flight field to report
            assert set(mine) == {"session", "bound", "in_transaction",
                                 "txn", "aborted", "statements"}
            a.sql("ROLLBACK")

    def test_slowlog_empty_below_threshold(self, harness):
        with harness.connect() as client:
            client.sql("SELECT id FROM t")
            assert client.slowlog() == []

    def test_slow_entry_carries_plan_and_trace(self, harness):
        harness.db.configure(slow_query_seconds=1e-9)
        with harness.connect() as client:
            client.sql("SELECT id, v FROM t WHERE id = 2")
            entries = client.slowlog(limit=5)
            assert entries, "slow entry should have crossed the wire"
            entry = entries[0]
            assert entry["slow"]
            assert entry["session"] == client.conn_id
            assert "SELECT id, v FROM t" in entry["statement"]
            # the replay payload: full plan text plus the span trace
            assert "Scan" in entry["plan"]
            execute = entry["trace"]["root"]["children"][-1]
            assert execute["children"][0]["actual_rows"] == 1

    def test_slowlog_respects_limit(self, harness):
        harness.db.configure(slow_query_seconds=1e-9)
        with harness.connect() as client:
            for _ in range(4):
                client.sql("SELECT id FROM t")
            assert len(client.slowlog(limit=2)) == 2

    def test_drift_over_the_wire(self, harness):
        with harness.connect() as client:
            client.sql("SELECT id FROM t WHERE v > 15")
            report = client.drift()
            assert not report["empty"]
            assert report["recorded"] >= 1
            assert report["groups"]
            tables = {t["table"] for t in report["tables"]}
            assert "t" in tables

    def test_metrics_include_latency(self, harness):
        with harness.connect() as client:
            client.sql("SELECT id FROM t")
            metrics = client.metrics()
            assert "latency" in metrics
            assert metrics["latency"]["select"]["count"] >= 1


class TestTopPanel:
    def test_render_over_a_fixed_snapshot(self):
        metrics = {
            "server_connections_total": {"total": 3},
            "server_statements_total": {"total": 41},
            "server_errors_total": {"total": 1,
                                    "by_label": {"BindError": 1}},
            "slow_queries_total": {"total": 2},
            "latency": {
                "select": {"count": 40, "mean": 0.0012, "p50": 0.001,
                           "p99": 0.0051},
                "update": {"count": 1, "mean": 0.002, "p50": 0.002,
                           "p99": 0.002},
            },
        }
        sessions = [
            {"session": "c1", "bound": False, "in_transaction": True,
             "txn": "T7", "aborted": False, "statements": 2},
            {"session": "c2", "bound": False, "in_transaction": False,
             "txn": None, "aborted": False, "statements": 0},
        ]
        slowlog = [{"seconds": 0.3125, "kind": "select", "rows": 12,
                    "session": "c1",
                    "statement": "SELECT D.did FROM Dept D"}]
        panel = render_top(metrics, sessions, slowlog, {},
                           address="127.0.0.1:7878")
        assert [line.rstrip() for line in panel.splitlines()] == [
            "repro top \u2014 127.0.0.1:7878",
            "connections=3  statements=41  errors=1  slow=2",
            "",
            "latency by statement kind:",
            "  kind       count    mean ms    p50 ms     p99 ms",
            "  select     40       1.20       1.00       5.10",
            "  update     1        2.00       2.00       2.00",
            "",
            "sessions (2):",
            "  session  txn    stmts",
            "  c1       T7     2",
            "  c2       -      0",
            "",
            "slow queries (worst 1 of 1):",
            "  ms         kind     rows     sess   statement",
            "  312.50     select   12       c1     SELECT D.did FROM Dept D",
            "",
            "drift: no query ran a plan in the window",
            "",
            "adaptive: no actions",
        ]
