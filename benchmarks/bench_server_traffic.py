"""Server traffic under many concurrent clients: throughput and tails.

Fifty real TCP clients (threads with blocking sockets — deliberately
the dumbest possible driver) each run a seeded mixed workload against
one server: point reads, an aggregate, and an explicit read-modify-
write transaction on the client's own row every few requests. The
server's event loop multiplexes the sockets while the database lock
serializes statement execution, so this measures the whole serving
stack: framing, the executor hop, MVCC session switching, and the
engine itself.

Reported: total qps, p50/p99 request latency, and the error count
(which must be zero — disjoint rows mean no serialization conflicts).
Gated: the qps floor (``TRAFFIC_MIN_QPS``, default 200) with
``TRAFFIC_CLIENTS`` (default 50) concurrent connections. The floor is
deliberately loose — CI machines vary wildly — but a serving-path
regression that serializes the event loop or leaks sessions shows up
as an order-of-magnitude collapse, not a few percent.
"""

import asyncio
import os
import random
import statistics
import threading
import time

from repro import Database, DataType
from repro.server import Client, Server

N_CLIENTS = int(os.environ.get("TRAFFIC_CLIENTS", "50"))
REQUESTS = int(os.environ.get("TRAFFIC_REQUESTS", "30"))
MIN_QPS = float(os.environ.get("TRAFFIC_MIN_QPS", "200"))
SEED = 2026


class ServerThread:
    """A live server on an ephemeral port, in a background loop."""

    def __init__(self, db):
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

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop).result(10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        self._loop.close()


def build_db():
    db = Database()
    db.create_table("acct", [("id", DataType.INT),
                             ("owner", DataType.INT),
                             ("bal", DataType.INT)])
    db.insert("acct", [(i, i % 10, 100) for i in range(N_CLIENTS + 20)])
    db.analyze("acct")
    return db


def client_workload(index, address, latencies, errors, barrier):
    """One client's seeded request mix; appends per-request seconds."""
    rng = random.Random(SEED + index)
    try:
        client = Client(*address)
    except OSError as exc:
        errors.append(exc)
        return
    try:
        barrier.wait(timeout=30)
        for step in range(REQUESTS):
            started = time.perf_counter()
            try:
                if step % 5 == 4:
                    # read-modify-write on this client's own row:
                    # disjoint ids, so never a conflict
                    client.sql("BEGIN")
                    client.sql("UPDATE acct SET bal = bal + 1 "
                               "WHERE id = %d" % index)
                    client.sql("COMMIT")
                elif rng.random() < 0.2:
                    client.sql("SELECT owner, SUM(bal) AS s FROM acct "
                               "GROUP BY owner")
                else:
                    client.sql("SELECT bal FROM acct WHERE id = %d"
                               % rng.randrange(N_CLIENTS + 20))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                return
            latencies.append(time.perf_counter() - started)
    finally:
        client.close()


def run_traffic():
    """(qps, p50, p99, errors, elapsed_seconds, db)."""
    db = build_db()
    latencies, errors = [], []
    barrier = threading.Barrier(N_CLIENTS + 1)
    with ServerThread(db) as harness:
        address = harness.server.address
        threads = [threading.Thread(
            target=client_workload,
            args=(i, address, latencies, errors, barrier))
            for i in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)  # all clients connected: start clock
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        assert harness.server.total_connections >= N_CLIENTS
    ordered = sorted(latencies)
    p50 = statistics.median(ordered) if ordered else float("nan")
    p99 = ordered[int(len(ordered) * 0.99)] if ordered else float("nan")
    qps = len(ordered) / elapsed if elapsed else 0.0
    return qps, p50, p99, errors, elapsed, db


def test_server_sustains_concurrent_traffic():
    qps, p50, p99, errors, _elapsed, db = run_traffic()
    assert not errors, "first client error: %r (of %d)" \
        % (errors[0], len(errors))
    assert qps >= MIN_QPS, (
        "server qps %.0f under the %.0f floor with %d clients "
        "(p50 %.1fms, p99 %.1fms)"
        % (qps, MIN_QPS, N_CLIENTS, p50 * 1e3, p99 * 1e3))
    # every explicit transaction committed: each client bumped its own
    # row once per 5 requests
    expected = 100 + REQUESTS // 5
    rows = db.sql("SELECT bal FROM acct WHERE id < %d" % N_CLIENTS).rows
    assert all(bal == expected for (bal,) in rows), \
        "a committed transaction was lost under load"
    assert not db.txn.any_open_txn(), "a session leaked a transaction"


def main():
    qps, p50, p99, errors, elapsed, _db = run_traffic()
    total = N_CLIENTS * REQUESTS
    print("clients: %d concurrent, %d requests each (seed %d)"
          % (N_CLIENTS, REQUESTS, SEED))
    print("completed: %d requests in %.2fs, %d errors"
          % (total, elapsed, len(errors)))
    print("throughput: %.0f qps (floor: %.0f)" % (qps, MIN_QPS))
    print("latency: p50 %.2fms  p99 %.2fms" % (p50 * 1e3, p99 * 1e3))
    if errors:
        print("first error: %r" % errors[0])


if __name__ == "__main__":
    main()
