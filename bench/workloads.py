"""The four benchmark workloads: data, statement streams, the user-level
call that executes one operation, and the sqlite3 oracle that checks it.

Every generator is driven by ``--seed``; a stream is materialised
before the clock starts and the engine only ever receives its text.
Nothing here passes ``engine=``, ``use_cache=`` or ``trace=``: the
workloads measure what ``repro.connect()`` and ``python -m repro serve``
give a user by default.

Imported by ``child.py`` only, after it has put ``src/`` on sys.path.
"""

from __future__ import annotations

import math
import os
import random
import re
import resource
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import repro
from repro.server import Client
from repro.workloads.empdept import (DEP_AVG_SAL_VIEW, EmpDeptConfig,
                                     build_empdept)
from repro.workloads.graphs import GraphConfig, build_graph
from repro.workloads.star import CUST_SPEND_VIEW, StarConfig, build_star

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

#: pseudo-statement inside an operation: the runner calls db.checkpoint()
CHECKPOINT = "CHECKPOINT"


def seeded(seed: int, purpose: str) -> random.Random:
    """One independent generator per purpose, so a longer stream has
    the shorter one as its prefix and data does not shift with it."""
    return random.Random("%d:%s" % (seed, purpose))


# ------------------------------------------------------------- the oracle

def sqlite_copy(db, tables, views=()) -> sqlite3.Connection:
    """The database's tables, read back row by row, in stdlib sqlite3."""
    con = sqlite3.connect(":memory:", isolation_level=None)
    for table in tables:
        result = db.sql("SELECT * FROM %s" % table)
        names = list(result.columns)
        con.execute("CREATE TABLE %s (%s)" % (table, ", ".join(names)))
        con.executemany(
            "INSERT INTO %s VALUES (%s)"
            % (table, ", ".join("?" * len(names))), result.rows)
    for name, body in views:
        con.execute("CREATE VIEW %s AS %s" % (name, body))
    return con


def _sort_key(row):
    return tuple(
        (0, 0.0) if v is None
        else (1, round(float(v), 4)) if isinstance(v, (int, float))
        else (2, v)
        for v in row)


def same_rows(ours, theirs) -> bool:
    """Row multisets equal, floats to 1e-9 relative."""
    if len(ours) != len(theirs):
        return False
    for a, b in zip(sorted(map(tuple, ours), key=_sort_key),
                    sorted(map(tuple, theirs), key=_sort_key)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if x is None or y is None or not math.isclose(
                        x, y, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif x != y:
                return False
    return True


# ------------------------------------------------------------- base classes

class Workload:
    """One workload: ``generate`` → ``open`` → ``execute``* → ``verify``
    → ``close``. An operation is ``(class, (sql text, ...))``."""

    name = ""
    connections = 1
    #: classes whose single statement is a query the oracle can answer
    read_classes = ()
    #: operations a full-scale trace run samples 1-in-10 from
    nominal_ops = 0
    #: untimed operations at the head of the stream
    warmup_ops = 0
    #: stream length per second of budget, several times what the seed
    #: commit completes, so the clock (not the stream) ends a run
    headroom_ops_per_s = 0
    #: set by a workload whose database lives in another process
    server_rss_kb = None
    #: commits go through a WAL file; bytes in one stored row
    durable = False
    row_bytes = 0

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.nominal_ops = max(20, int(self.nominal_ops * scale))
        self.warmup_ops = max(2, int(self.warmup_ops * scale))
        self.load_rows = 0
        self.load_seconds = 0.0

    def stream_length(self, seconds: float) -> int:
        return max(self.nominal_ops, self.warmup_ops
                   + int(self.headroom_ops_per_s * seconds))

    def generate(self, conn: int, count: int) -> list:
        raise NotImplementedError

    def open(self) -> None:
        raise NotImplementedError

    def execute(self, op, conn: int = 0):
        """One operation, the way a user issues it; returns the last
        statement's result."""
        raise NotImplementedError

    def read(self, text: str) -> list:
        return self.execute(("read", (text,))).rows

    def local(self):
        """The in-process database the staged (traced) replay runs on."""
        raise NotImplementedError

    def execute_local(self, op):
        """``execute`` against :meth:`local`, still unstaged."""
        return self.execute(op)

    def close(self) -> None:
        pass

    def cache_stats(self) -> dict:
        """Plan-cache counters (hits, misses, evictions) as a user of
        this workload's database can read them."""
        raise NotImplementedError

    # ---------------------------------------------------------- checking

    def oracle(self, executed) -> sqlite3.Connection:
        raise NotImplementedError

    def check_state(self, oracle) -> list:
        """Extra ``(label, ok)`` checks on the final state."""
        return []

    def verify(self, executed, sample_size: int):
        """Compare against sqlite3 every statement shape plus a seeded
        sample of the reads that ran. ``executed`` is one list of
        operations per connection, in the order they ran. Returns
        ``(checked, [what differed, ...])``."""
        oracle = self.oracle(executed)
        reads, shapes = {}, {}
        for ops in executed:
            for cls, texts in ops:
                if cls in self.read_classes:
                    reads[texts[0]] = None  # each distinct text once
                    shapes.setdefault(cls, texts[0])
        rng = seeded(self.seed, "verify")
        picked = list(dict.fromkeys(list(shapes.values()) + rng.sample(
            list(reads), min(len(reads), sample_size))))
        differed = [text for text in picked if not same_rows(
            self.read(text), oracle.execute(text).fetchall())]
        state = self.check_state(oracle)
        differed += [label for label, ok in state if not ok]
        oracle.close()
        return len(picked) + len(state), differed


class Embedded(Workload):
    """One in-process database, one session, one thread."""

    def connect(self):
        return repro.connect()

    def build(self, db) -> int:
        """Create, load, index and analyze; returns rows loaded."""
        raise NotImplementedError

    def open(self) -> None:
        self.db = self.connect()
        started = perf_counter()
        self.load_rows = self.build(self.db)
        self.load_seconds = perf_counter() - started

    def execute(self, op, conn: int = 0):
        result = None
        for text in op[1]:
            if text == CHECKPOINT:
                self.db.checkpoint()
            else:
                result = self.db.sql(text)
        return result

    def local(self):
        return self.db

    def cache_stats(self) -> dict:
        return self.db.cache_stats()


# ------------------------------------------------------- magic_view.cold

FIG1 = ("SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
        "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
        "AND E.age < %d AND D.budget > %d")
REACH = ("WITH RECURSIVE tc(x, y) AS (SELECT src, dst FROM Edge UNION "
         "SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src) "
         "SELECT x, y FROM tc WHERE x = %d")


class MagicViewCold(Embedded):
    name = "magic_view.cold"
    read_classes = ("fig1", "reach")
    nominal_ops = 1500
    warmup_ops = 40
    headroom_ops_per_s = 600

    departments = 500
    employees_per_department = 40
    tree_nodes = 400

    def build(self, db) -> int:
        build_empdept(db, EmpDeptConfig(
            num_departments=self.departments,
            employees_per_department=self.employees_per_department,
            seed=self.seed))
        build_graph(db, GraphConfig(shape="tree", branching=3,
                                    num_nodes=self.tree_nodes))
        return (self.departments * (1 + self.employees_per_department)
                + self.tree_nodes - 1)

    def generate(self, conn: int, count: int) -> list:
        """80 % Figure-1 queries, no two with the same constants; 20 %
        bounded reachability, start nodes drawn without replacement
        (a node recurs only after all the others, far further apart
        than the plan cache is large)."""
        rng = seeded(self.seed, "magic ops")
        ops, seen, nodes = [], set(), []
        while len(ops) < count:
            if rng.random() < 0.2:
                if not nodes:
                    nodes = list(range(1, self.tree_nodes + 1))
                    rng.shuffle(nodes)
                ops.append(("reach", (REACH % nodes.pop(),)))
                continue
            constants = (rng.randint(24, 45),
                         rng.randint(100_000, 800_000))
            if constants not in seen:
                seen.add(constants)
                ops.append(("fig1", (FIG1 % constants,)))
        return ops

    def oracle(self, executed) -> sqlite3.Connection:
        return sqlite_copy(self.db, ("Emp", "Dept", "Edge"),
                           [("DepAvgSal", DEP_AVG_SAL_VIEW)])


# ---------------------------------------------------- star_scan.analytic

STAR = ("SELECT C.region, P.category, SUM(S.amount) AS revenue, "
        "COUNT(*) AS n FROM Sales S, Customer C, Product P "
        "WHERE S.cust_id = C.cust_id AND S.prod_id = P.prod_id "
        "AND P.price > %d GROUP BY C.region, P.category")
AGG = ("SELECT S.store_id, COUNT(*) AS n, SUM(S.amount) AS revenue, "
       "AVG(S.amount) AS mean, MIN(S.qty) AS fewest, "
       "MAX(S.amount) AS largest FROM Sales S WHERE S.amount > %d "
       "GROUP BY S.store_id")
VIEW5 = ("SELECT C.region, P.category, SUM(S.amount) AS revenue, "
         "COUNT(*) AS n FROM Sales S, Customer C, Product P, Store T, "
         "CustSpend V WHERE S.cust_id = C.cust_id "
         "AND S.prod_id = P.prod_id AND S.store_id = T.store_id "
         "AND V.cust_id = C.cust_id AND V.total_spend > %d "
         "AND P.price > %d GROUP BY C.region, P.category")


class StarScanAnalytic(Embedded):
    name = "star_scan.analytic"
    read_classes = ("star", "agg", "view5")
    nominal_ops = 500
    warmup_ops = 6
    headroom_ops_per_s = 80

    sales = 30_000

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.config = StarConfig(num_sales=self.sales, seed=seed)

    def build(self, db) -> int:
        config = self.config
        build_star(db, config)
        return (config.num_sales + config.num_customers
                + config.num_products + config.num_stores)

    def generate(self, conn: int, count: int) -> list:
        """Three shapes round-robin, constants from small seeded sets
        (so texts repeat, and selectivity stays in a narrow band)."""
        rng = seeded(self.seed, "star ops")
        mean_spend = self.sales // self.config.num_customers * 1000
        prices = [rng.randint(90, 110) for _ in range(8)]
        amounts = [rng.randint(40, 60) for _ in range(8)]
        spends = [mean_spend * rng.randint(100, 103) // 100
                  for _ in range(4)]
        ops = []
        for index in range(count):
            shape = index % 3
            if shape == 0:
                ops.append(("star", (STAR % rng.choice(prices),)))
            elif shape == 1:
                ops.append(("agg", (AGG % rng.choice(amounts),)))
            else:
                ops.append(("view5", (VIEW5 % (rng.choice(spends),
                                               rng.choice(prices)),)))
        return ops

    def oracle(self, executed) -> sqlite3.Connection:
        return sqlite_copy(
            self.db, ("Customer", "Product", "Store", "Sales"),
            [("CustSpend", CUST_SPEND_VIEW)])


# ---------------------------------------------------- txn_write.durable

SCAN = ("SELECT owner, SUM(bal) AS total, COUNT(*) AS n FROM acct "
        "GROUP BY owner")
POINT = "SELECT bal FROM acct WHERE id = %d"


class TxnWriteDurable(Embedded):
    name = "txn_write.durable"
    read_classes = ("point", "scan")
    nominal_ops = 8000
    warmup_ops = 120
    headroom_ops_per_s = 2500

    durable = True
    accounts = 5000
    owners = 50
    checkpoint_every = 500
    #: acct is three INT columns
    row_bytes = 24
    #: flush policy, recorded in the results
    flush_policy = "fsync per commit (durability='commit', WAL file)"

    def connect(self):
        OUT.mkdir(exist_ok=True)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=OUT)
        self.wal_path = os.path.join(self.wal_dir, "wal.bin")
        return repro.connect(durability="commit", wal_path=self.wal_path)

    def initial_rows(self) -> list:
        rng = seeded(self.seed, "acct rows")
        return [(i, rng.randrange(self.owners), rng.randint(500, 1500))
                for i in range(self.accounts)]

    def build(self, db) -> int:
        db.create_table("acct", [("id", repro.DataType.INT),
                                 ("owner", repro.DataType.INT),
                                 ("bal", repro.DataType.INT)])
        db.insert("acct", self.initial_rows())
        db.create_index("acct", "id")
        db.analyze()
        return self.accounts

    def generate(self, conn: int, count: int) -> list:
        """60 % transfer between two accounts of the lower half, 15 %
        INSERT of a new id, 5 % DELETE of an upper-half id (each id at
        most once), 10 % point read, 10 % GROUP BY scan of the table
        being written; every 500 operations a checkpoint rides on the
        next write."""
        rng = seeded(self.seed, "txn ops")
        half = self.accounts // 2
        victims = list(range(half, self.accounts))
        rng.shuffle(victims)
        next_id = self.accounts
        ops, checkpoint_due = [], False
        for index in range(1, count + 1):
            draw = rng.random()
            if draw < 0.60:
                a, b = rng.sample(range(half), 2)
                amount = rng.randint(1, 20)
                cls, texts = "xfer", (
                    "BEGIN",
                    "UPDATE acct SET bal = bal - %d WHERE id = %d"
                    % (amount, a),
                    "UPDATE acct SET bal = bal + %d WHERE id = %d"
                    % (amount, b),
                    "COMMIT")
            elif draw < 0.75:
                cls, texts = "insert", (
                    "INSERT INTO acct VALUES (%d, %d, %d)"
                    % (next_id, rng.randrange(self.owners),
                       rng.randint(500, 1500)),)
                next_id += 1
            elif draw < 0.80 and victims:
                cls, texts = "delete", (
                    "DELETE FROM acct WHERE id = %d" % victims.pop(),)
            elif draw < 0.90:
                cls, texts = "point", (POINT % rng.randrange(half),)
            else:
                cls, texts = "scan", (SCAN,)
            checkpoint_due |= index % self.checkpoint_every == 0
            if checkpoint_due and cls not in self.read_classes:
                texts += (CHECKPOINT,)
                checkpoint_due = False
            ops.append((cls, texts))
        return ops

    def oracle(self, executed) -> sqlite3.Connection:
        """The seeded rows plus every write that ran, replayed in
        sqlite3 from the same text."""
        con = sqlite3.connect(":memory:", isolation_level=None)
        con.execute("CREATE TABLE acct (id, owner, bal)")
        con.executemany("INSERT INTO acct VALUES (?, ?, ?)",
                        self.initial_rows())
        con.execute("CREATE INDEX acct_id ON acct (id)")
        for ops in executed:
            for cls, texts in ops:
                if cls not in self.read_classes:
                    for text in texts:
                        if text != CHECKPOINT:
                            con.execute(text)
        return con

    def check_state(self, oracle) -> list:
        """The table equals the oracle's; transfers conserved money
        (nothing else touches the lower half); and a database rebuilt
        from only the WAL file's bytes holds the same rows."""
        live = self.db.sql("SELECT * FROM acct").rows
        half = self.accounts // 2
        initial = sum(bal for i, _owner, bal in self.initial_rows()
                      if i < half)
        lower = self.db.sql(
            "SELECT SUM(bal) AS total FROM acct WHERE id < %d"
            % half).rows
        with open(self.wal_path, "rb") as handle:
            wal_bytes = handle.read()
        recovered, _report = repro.recover(wal_bytes)
        return [
            ("acct differs from the sqlite3 replay", same_rows(
                live, oracle.execute("SELECT * FROM acct").fetchall())),
            ("transfers did not conserve SUM(bal)",
             lower == [(initial,)]),
            ("database recovered from the WAL differs from the live one",
             same_rows(live, recovered.sql("SELECT * FROM acct").rows)),
        ]

    def close(self) -> None:
        shutil.rmtree(self.wal_dir, ignore_errors=True)


# --------------------------------------------------------- served.mixed

POINT_DID = "SELECT E.eid, E.sal FROM Emp E WHERE E.did = %d"
VIEW_DID = ("SELECT D.did, D.budget, V.avgsal FROM Dept D, DepAvgSal V "
            "WHERE D.did = V.did AND D.did = %d")
BUMP_DID = "UPDATE Dept SET budget = budget + 1 WHERE did = %d"


class ServedMixed(Workload):
    name = "served.mixed"
    connections = 2
    read_classes = ("point", "view")
    nominal_ops = 8000
    warmup_ops = 200
    headroom_ops_per_s = 3000

    #: what `serve --workload empdept` preloads
    config = EmpDeptConfig()
    zipf_s = 1.1

    _replica = None

    def generate(self, conn: int, count: int) -> list:
        """80 % indexed point lookup, 10 % view lookup, 10 % one-row
        update transaction sent as one script; keys Zipf(1.1) over the
        departments. Connection ``conn`` writes only departments of its
        own parity, so a SerializationError would be a failure."""
        rng = seeded(self.seed, "served ops %d" % conn)
        departments = self.config.num_departments
        weights = [1.0 / rank ** self.zipf_s
                   for rank in range(1, departments + 1)]
        keys = rng.choices(range(1, departments + 1), weights, k=count)
        ops = []
        for key in keys:
            draw = rng.random()
            if draw < 0.8:
                ops.append(("point", (POINT_DID % key,)))
            elif draw < 0.9:
                ops.append(("view", (VIEW_DID % key,)))
            else:
                own = key if key % 2 == conn else (
                    key + 1 if key < departments else key - 1)
                ops.append(("txn", ("BEGIN", BUMP_DID % own, "COMMIT")))
        return ops

    def open(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workload", "empdept"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        self.clients = []
        try:
            banner = self.server.stderr.readline()
            match = re.search(r"listening on (\S+):(\d+)", banner)
            if match is None:
                raise RuntimeError("server did not start: %r" % banner)
            self.address = (match.group(1), int(match.group(2)))
            for _ in range(self.connections):
                self.clients.append(Client(*self.address))
        except BaseException:
            self.close()  # never leave the server behind
            raise

    def execute(self, op, conn: int = 0):
        """One operation is one request: a statement, or the whole
        transaction as a single script."""
        texts = op[1]
        if len(texts) == 1:
            return self.clients[conn].sql(texts[0])
        return self.clients[conn].execute_script("; ".join(texts))[-1]

    def local(self):
        """A database built in this process the way the server built
        its own."""
        if self._replica is None:
            self._replica = repro.connect()
            started = perf_counter()
            build_empdept(self._replica, self.config)
            self.load_seconds = perf_counter() - started
            self.load_rows = self.config.num_departments * (
                1 + self.config.employees_per_department)
            self._session = self._replica.new_session()
        return self._replica

    def execute_local(self, op):
        self.local()
        for text in op[1]:
            result = self._session.sql(text)
        return result

    def cache_stats(self) -> dict:
        events = self.clients[0].metrics().get(
            "plan_cache_events_total", {}).get("by_label", {})
        return {"hits": events.get("hit", 0),
                "misses": events.get("miss", 0),
                "evictions": events.get("eviction", 0)}

    def oracle(self, executed) -> sqlite3.Connection:
        """The preload, plus one budget increment per update that ran
        (increments commute, so the two connections' order is moot)."""
        preload = build_empdept(repro.connect(), self.config)
        con = sqlite_copy(preload, ("Emp", "Dept"),
                          [("DepAvgSal", DEP_AVG_SAL_VIEW)])
        for ops in executed:
            for cls, texts in ops:
                if cls == "txn":
                    con.execute(texts[1])
        return con

    def close(self) -> None:
        """Say goodbye on every connection, stop the server, reap it."""
        for client in self.clients:
            client.close()
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()
        self.server_rss_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {cls.name: cls for cls in (
    MagicViewCold, StarScanAnalytic, ServedMixed, TxnWriteDurable)}
