"""Error-taxonomy property: only ``ReproError`` subclasses escape the
public API.

A fuzzer throws malformed SQL, bad parameter vectors, and bad API
arguments at every public ``Database`` entry point and asserts that
nothing but a typed :class:`ReproError` (or a plain ``TypeError`` /
``ValueError`` for non-SQL argument-contract violations) ever escapes —
no ``KeyError``, ``AttributeError``, ``IndexError``, or other internal
exceptions leaking implementation details to callers.
"""

import random
import string

import pytest

from repro import (Database, DataType, ExecutionError, Options,
                   ProtocolError, ReproError)
from repro.distributed import DistributedDatabase, FaultPlan

# Internal exception types that must NEVER escape a public entry point.
_LEAKY = (KeyError, AttributeError, IndexError, UnboundLocalError,
          RecursionError, ZeroDivisionError, StopIteration)

# Argument-contract violations (wrong Python types passed to a Python
# API) may surface as TypeError/ValueError — that is normal Python
# behavior, not a leak.
_ACCEPTABLE = (ReproError, TypeError, ValueError)


def make_db():
    db = Database()
    db.create_table("Emp", [("name", DataType.STR),
                            ("dept", DataType.INT),
                            ("sal", DataType.INT)])
    db.create_table("Dept", [("dno", DataType.INT),
                             ("dname", DataType.STR)])
    db.insert("Emp", [("e%d" % i, i % 4, 100 * i) for i in range(40)])
    db.insert("Dept", [(i, "d%d" % i) for i in range(4)])
    db.create_index("Emp", "dept")
    db.analyze()
    return db


def mutate_sql(rng):
    """One malformed-ish SQL string: a valid statement with random
    corruption, or pure garbage."""
    seeds = [
        "SELECT name FROM Emp WHERE dept = 2",
        "SELECT E.name, D.dname FROM Emp E, Dept D WHERE E.dept = D.dno",
        "SELECT dept, COUNT(*) FROM Emp GROUP BY dept",
        "INSERT INTO Emp VALUES ('x', 1, 2)",
        "CREATE TABLE Zed (a INT)",
        "SELECT name FROM Emp ORDER BY sal",
        "SELECT name FROM Emp WHERE sal > ? AND dept = ?",
        "BEGIN",
        "COMMIT",
        "ROLLBACK",
        "SAVEPOINT sp1",
        "ROLLBACK TO SAVEPOINT sp1",
        "RELEASE SAVEPOINT sp1",
    ]
    text = rng.choice(seeds)
    op = rng.randrange(6)
    if op == 0:      # delete a random slice
        i = rng.randrange(len(text))
        text = text[:i] + text[i + rng.randrange(1, 8):]
    elif op == 1:    # insert random junk
        i = rng.randrange(len(text))
        junk = "".join(rng.choice(string.printable)
                       for _ in range(rng.randrange(1, 6)))
        text = text[:i] + junk + text[i:]
    elif op == 2:    # swap two tokens
        words = text.split()
        if len(words) > 2:
            a, b = rng.randrange(len(words)), rng.randrange(len(words))
            words[a], words[b] = words[b], words[a]
        text = " ".join(words)
    elif op == 3:    # truncate
        text = text[:rng.randrange(len(text))]
    elif op == 4:    # pure garbage
        text = "".join(rng.choice(string.printable)
                       for _ in range(rng.randrange(0, 40)))
    # op == 5: leave the statement intact (valid input must not raise
    # anything non-typed either)
    return text


@pytest.mark.parametrize("seed", range(120))
def test_sql_entry_points_raise_only_typed_errors(seed):
    rng = random.Random(seed)
    db = make_db()
    text = mutate_sql(rng)
    entry_points = [
        lambda: db.sql(text),
        lambda: db.sql(text, options=Options(use_cache=True)),
        lambda: db.explain(text),
        lambda: db.explain_analyze(text),
        lambda: db.prepare(text),
        lambda: db.bind(text),
        lambda: db.plan(text),
        lambda: list(db.execute_script(text + ";" + text)),
    ]
    for call in entry_points:
        try:
            call()
        except ReproError:
            pass
        except _LEAKY as exc:  # pragma: no cover - the bug we hunt
            pytest.fail("raw %s leaked for %r: %s"
                        % (type(exc).__name__, text, exc))


@pytest.mark.parametrize("seed", range(40))
def test_prepared_parameter_fuzz(seed):
    rng = random.Random(seed)
    db = make_db()
    stmt = db.prepare("SELECT name FROM Emp WHERE sal > ? AND dept = ?")
    bad_param_vectors = [
        (),                       # too few
        (1,),                     # too few
        (1, 2, 3),                # too many
        ("not-an-int", "nope"),   # wrong types
        (None, None),
        (object(), object()),
        ([1], {2: 3}),
    ]
    params = rng.choice(bad_param_vectors)
    try:
        stmt.execute(params)
    except _ACCEPTABLE:
        pass
    except _LEAKY as exc:
        pytest.fail("raw %s leaked for params %r: %s"
                    % (type(exc).__name__, params, exc))


class TestApiArgumentFuzz:
    """Bad non-SQL arguments to catalog-mutating entry points."""

    def check(self, call):
        try:
            call()
        except _ACCEPTABLE:
            pass
        except _LEAKY as exc:
            pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))

    def test_create_table_bad_args(self):
        db = make_db()
        self.check(lambda: db.create_table("Emp", [("a", DataType.INT)]))
        self.check(lambda: db.create_table("", []))
        self.check(lambda: db.create_table("X", [("a", "not-a-type")]))
        self.check(lambda: db.create_table("Y", [("a",)]))

    def test_insert_bad_args(self):
        db = make_db()
        self.check(lambda: db.insert("Missing", [(1,)]))
        self.check(lambda: db.insert("Emp", [(1,)]))          # arity
        self.check(lambda: db.insert("Emp", [("a", "b", "c")]))
        self.check(lambda: db.insert("Emp", "not-rows"))

    def test_create_index_bad_args(self):
        db = make_db()
        self.check(lambda: db.create_index("Missing", "a"))
        self.check(lambda: db.create_index("Emp", "missing_col"))

    def test_analyze_bad_args(self):
        db = make_db()
        self.check(lambda: db.analyze("Missing"))

    def test_sql_bad_run_options(self):
        db = make_db()
        self.check(lambda: db.sql("SELECT name FROM Emp",
                                  options=Options(timeout="soon")))
        self.check(lambda: db.sql("SELECT name FROM Emp",
                                  options=Options(
                                      memory_budget_bytes="lots")))

    def test_view_bad_args(self):
        db = make_db()
        self.check(lambda: db.create_view("V", "SELECT nope FROM gone"))
        self.check(lambda: db.create_view("Emp", "SELECT name FROM Emp"))


@pytest.mark.parametrize("index", ["sorted", "hash", None])
@pytest.mark.parametrize("analyzed", [False, True])
def test_null_and_incomparable_literals_never_depend_on_the_plan(
        index, analyzed):
    """A literal the column cannot be compared with behaves the same
    whatever access path answers the predicate — index probe (SELECT
    and UPDATE/DELETE alike), scan, or just the planner's selectivity
    estimate: ``=`` matches nothing, ``= NULL`` / ``< NULL`` match
    nothing, a range raises the typed ExecutionError."""
    db = Database()
    db.create_table("t", [("id", DataType.INT), ("v", DataType.INT)])
    db.insert("t", [(i, i % 7) for i in range(100)])
    if index:
        db.create_index("t", "id", index)
    if analyzed:
        db.analyze()
    for where in ("id = NULL", "id < NULL", "id = 'a'", "'a' = id"):
        assert db.sql("SELECT * FROM t WHERE %s" % where).rows == []
        assert db.sql("UPDATE t SET v = 0 WHERE %s" % where
                      ).rows == [(0,)]
        assert db.sql("DELETE FROM t WHERE %s" % where).rows == [(0,)]
    for where in ("id < 'a'", "id >= 'a'", "v < 'a'", "'a' > id"):
        for text in ("SELECT * FROM t WHERE %s", "DELETE FROM t WHERE %s",
                     "UPDATE t SET v = 0 WHERE %s"):
            with pytest.raises(ExecutionError):
                db.sql(text % where)
    assert len(db.sql("SELECT * FROM t").rows) == 100


@pytest.mark.parametrize("seed", range(60))
def test_txn_surface_stays_typed(seed):
    """Random interleavings of transaction control and statements —
    including statements fired into an aborted transaction — must only
    ever raise typed errors. ``SimulatedCrash`` is exempt from the
    taxonomy by design (it models process death, not an engine error)
    but this fuzzer never arms a crash injector, so it must not appear
    either."""
    rng = random.Random(seed)
    db = make_db()
    db.configure(durability=rng.choice(["off", "lazy", "commit"]))
    moves = ["BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT s",
             "ROLLBACK TO SAVEPOINT s", "RELEASE SAVEPOINT s",
             "SAVEPOINT t", "RELEASE SAVEPOINT missing"]
    for _ in range(rng.randrange(4, 14)):
        if rng.random() < 0.55:
            text = rng.choice(moves)
        else:
            text = mutate_sql(rng)
        try:
            db.sql(text)
        except ReproError:
            pass
        except _LEAKY as exc:  # pragma: no cover - the bug we hunt
            pytest.fail("raw %s leaked for %r: %s"
                        % (type(exc).__name__, text, exc))
    # non-SQL mutation entry points inside whatever txn state we ended in
    for call in (lambda: db.insert("Emp", [("z", 1, 1)]),
                 lambda: db.analyze("Emp"),
                 lambda: db.checkpoint()):
        try:
            call()
        except _ACCEPTABLE:
            pass
        except _LEAKY as exc:
            pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))


@pytest.mark.parametrize("seed", range(40))
def test_recover_on_garbage_raises_only_typed_errors(seed):
    """recover() fed arbitrary bytes — random garbage, bit-flipped real
    logs, truncations — either recovers some prefix or raises a typed
    WalError; internals never leak."""
    from repro import recover, MemoryStorage, WriteAheadLog, Database as DB

    rng = random.Random(seed)
    db = DB()
    db.configure(durability="commit")
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage))
    db.create_table("R", [("a", DataType.INT)])
    db.insert("R", [(i,) for i in range(8)])
    real = storage.crash()

    mode = seed % 4
    if mode == 0:       # pure garbage
        data = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 200)))
    elif mode == 1:     # real log, one flipped byte
        data = bytearray(real)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        data = bytes(data)
    elif mode == 2:     # real log, random truncation
        data = real[:rng.randrange(len(real) + 1)]
    else:               # real log + garbage tail
        data = real + bytes(rng.randrange(256)
                            for _ in range(rng.randrange(1, 60)))
    try:
        recovered, report = recover(data)
        recovered.sql("SELECT 1 WHERE 1 = 0")  # must be a usable db
    except ReproError:
        pass
    except _LEAKY as exc:
        pytest.fail("raw %s leaked from recover(): %s"
                    % (type(exc).__name__, exc))


class TestTxnApiArgumentFuzz:
    """Bad arguments and bad states on the transaction surface."""

    def check(self, call):
        try:
            call()
        except _ACCEPTABLE:
            pass
        except _LEAKY as exc:
            pytest.fail("raw %s leaked: %s" % (type(exc).__name__, exc))

    def test_bad_durability_and_wal_args(self):
        db = make_db()
        self.check(lambda: db.configure(durability="paranoid"))
        self.check(lambda: db.attach_wal("not-a-wal"))
        self.check(lambda: db.checkpoint())           # durability off

    def test_txn_misuse(self):
        db = make_db()
        self.check(lambda: db.sql("COMMIT"))          # no txn
        self.check(lambda: db.sql("SAVEPOINT s"))     # no txn
        db.sql("BEGIN")
        self.check(lambda: db.sql("BEGIN"))           # nested
        self.check(lambda: db.checkpoint())           # inside txn
        self.check(lambda: db.sql("ROLLBACK TO SAVEPOINT nope"))
        db.sql("ROLLBACK")

    def test_recover_bad_source_type(self):
        from repro import recover
        self.check(lambda: recover(12345))
        self.check(lambda: recover(["not", "bytes"]))


@pytest.mark.parametrize("seed", range(30))
def test_distributed_fuzz_stays_typed(seed):
    """The distributed façade under faults obeys the same taxonomy."""
    rng = random.Random(seed)
    db = DistributedDatabase()
    db.create_table("R", [("x", DataType.INT)], site="east")
    db.insert("R", [(i,) for i in range(30)])
    db.analyze()
    db.set_fault_plan(FaultPlan(drop_rate=rng.random() * 0.9,
                                latency_rate=rng.random() * 0.5,
                                latency_seconds=rng.random() * 5),
                      seed=seed)
    text = mutate_sql(rng).replace("Emp", "R").replace("Dept", "R")
    try:
        db.sql(text, options=Options(timeout=rng.choice([None, 0.01, 1.0])))
    except ReproError:
        pass
    except _LEAKY as exc:
        pytest.fail("raw %s leaked for %r: %s"
                    % (type(exc).__name__, text, exc))


# ----------------------------------------------------------- server/session

@pytest.mark.parametrize("seed", range(40))
def test_session_surface_stays_typed(seed):
    """Mutated SQL through an explicit MVCC session: only typed errors,
    and the session remains usable afterwards."""
    rng = random.Random(seed)
    db = make_db()
    with db.new_session("fuzz") as session:
        for _ in range(6):
            text = mutate_sql(rng)
            try:
                session.sql(text)
            except ReproError:
                pass
            except _LEAKY as exc:
                pytest.fail("raw %s leaked from Session.sql(%r): %s"
                            % (type(exc).__name__, text, exc))
        if session.in_transaction:
            session.sql("ROLLBACK")
        assert session.sql("SELECT COUNT(*) AS c FROM Dept").rows \
            == [(4,)]
    assert not db.txn.any_open_txn()


@pytest.fixture(scope="module")
def fuzz_server():
    """One live server shared by the wire-fuzz tests below."""
    from tests.test_server import ServerHarness

    harness = ServerHarness(make_db()).start()
    yield harness
    harness.stop()


@pytest.mark.parametrize("seed", range(40))
def test_server_query_fuzz_stays_typed(fuzz_server, seed):
    """Mutated SQL over the wire re-raises only typed ReproErrors, and
    the connection survives every request-level failure."""
    rng = random.Random(seed)
    with fuzz_server.connect() as client:
        for _ in range(4):
            text = mutate_sql(rng)
            try:
                client.sql(text)
            except ReproError:
                pass
            except _LEAKY as exc:
                pytest.fail("raw %s over the wire for %r: %s"
                            % (type(exc).__name__, text, exc))
        assert client.ping(), "connection died on a query error"


def _junk_frames(rng):
    """Hostile byte streams for the framing layer."""
    import json
    import struct

    kind = rng.randrange(5)
    if kind == 0:    # header promises far more than MAX_FRAME_BYTES
        return struct.pack("<I", rng.randrange(2 ** 25, 2 ** 31))
    if kind == 1:    # valid header, non-JSON body
        junk = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(1, 64)))
        return struct.pack("<I", len(junk)) + junk
    if kind == 2:    # valid JSON, but not an object
        body = json.dumps(rng.choice([[1, 2], "text", 42,
                                      None, True])).encode()
        return struct.pack("<I", len(body)) + body
    if kind == 3:    # truncated frame (header promises more)
        body = b'{"op": "ping"}'
        return struct.pack("<I", len(body) + 10) + body
    # kind == 4: raw garbage, not even a full header sometimes
    return bytes(rng.randrange(256)
                 for _ in range(rng.randrange(0, 16)))


@pytest.mark.parametrize("seed", range(40))
def test_server_survives_wire_garbage(fuzz_server, seed):
    """Arbitrary junk bytes (bad headers, non-JSON bodies, truncated
    frames, mid-query disconnects) never wedge the server: the hostile
    connection is dropped, no transaction leaks open, and the next
    well-behaved client works."""
    import socket as socket_module

    rng = random.Random(seed)
    sock = fuzz_server.raw_socket()
    sock.settimeout(5)
    try:
        sock.sendall(_junk_frames(rng))
        if rng.random() < 0.5:  # sometimes wait for the error answer
            try:
                sock.recv(4096)
            except socket_module.timeout:
                pass
    finally:
        sock.close()
    with fuzz_server.connect() as client:
        assert client.ping()
        # the fuzz sometimes runs *valid* INSERTs, so the count can
        # only have grown from the seed data
        assert client.sql("SELECT COUNT(*) AS c FROM Emp").rows[0][0] \
            >= 40
    assert not fuzz_server.db.txn.any_open_txn()


BAD_SLOWLOG_LIMITS = [0, -1, 1001, "ten", True, False, None, 2.5,
                      [5], {"n": 5}]


@pytest.mark.parametrize("limit", BAD_SLOWLOG_LIMITS,
                         ids=[repr(v) for v in BAD_SLOWLOG_LIMITS])
def test_server_admin_bad_limit_stays_in_band(fuzz_server, limit):
    """A malformed ``slowlog`` limit is a request-level mistake: the
    server answers with a typed ProtocolError in-band and the
    connection keeps working — no disconnect, no leaked raw error."""
    with fuzz_server.connect() as client:
        with pytest.raises(ProtocolError) as excinfo:
            client.request("slowlog", limit=limit)
        assert "limit" in str(excinfo.value)
        assert client.ping(), "connection died on a bad admin request"
        assert client.slowlog(limit=1) == client.slowlog(limit=1)


@pytest.mark.parametrize("op", ["slow_log", "session", "metric",
                               "top", "drfit", "admin"])
def test_server_unknown_admin_ops_stay_typed(fuzz_server, op):
    """Misspelled admin ops get the same in-band ProtocolError as any
    unknown op, and the connection survives."""
    with fuzz_server.connect() as client:
        with pytest.raises(ProtocolError):
            client.request(op)
        assert client.ping()


def test_server_admin_ops_ignore_junk_extra_fields(fuzz_server):
    """Unknown request fields are ignored, as the protocol promises —
    admin requests included."""
    with fuzz_server.connect() as client:
        response = client.request("sessions", junk=1, nested={"a": [2]})
        assert response["ok"]
        assert isinstance(response["sessions"], list)
        report = client.request("drift", limit="ignored")["drift"]
        assert set(report) >= {"empty", "groups", "tables"}
