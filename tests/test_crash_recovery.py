"""Crash-recovery property: recovery reproduces EXACTLY the committed
state, from every surviving log the crash schedule can produce.

Each seeded schedule derives a workload (autocommit statements, explicit
transactions — some rolled back — and occasional checkpoints) and runs
it three ways:

1. **dry run** — a counting :class:`CrashInjector` enumerates every WAL
   append/fsync/checkpoint boundary the schedule crosses;
2. **crash runs** — for a seeded set of those boundaries, the schedule
   re-runs with an armed injector that kills the "process" mid-write.
   The in-memory database is abandoned (that is the crash); the
   surviving disk image is the WAL's durable bytes plus a seeded prefix
   of the unsynced tail — so torn final records happen naturally;
3. **oracle** — an *independent* ~20-line WAL parser (struct + zlib +
   json only, sharing no code with the engine) counts the commit
   records in the surviving bytes. A shadow database then replays
   exactly that many committed batches through the public API.

The property: ``fingerprint(recovered) == fingerprint(oracle)`` — rows,
index contents and statistics objects, byte for byte.
Committed-and-durable work survives every crash point; uncommitted or
torn work vanishes completely. A checkpoint may follow a rolled-back
transaction: rollback restores content exactly, so the snapshot equals
what a committed-only replay reaches.

``CRASH_SCHEDULES`` (default 200) sizes the sweep; CI's dedicated
crash-recovery job runs a subset.
"""

import json
import os
import random
import struct
import zlib

import pytest

from repro import Database, DataType
from repro.txn import (
    CrashInjector,
    MemoryStorage,
    SimulatedCrash,
    WriteAheadLog,
    fingerprint,
    recover,
)
from repro.txn.state import load_state, state_dict

N_SCHEDULES = int(os.environ.get("CRASH_SCHEDULES", "200"))
#: crash points exercised per schedule (all of them when fewer exist)
KILLS_PER_SCHEDULE = 6

COLUMNS = [("a", DataType.INT), ("b", DataType.INT), ("c", DataType.STR)]


# --------------------------------------------------- independent parser

def naive_committed_count(data: bytes) -> int:
    """Count durable commits with a from-scratch parser: magic, then
    ``length:u32le | crc32:u32le | json`` frames until the bytes run
    out or a checksum fails. Shares NO code with repro.txn."""
    magic = b"REPROWAL1\x00"
    if len(data) < len(magic) or not data.startswith(magic):
        return 0
    commits = 0
    offset = len(magic)
    while offset + 8 <= len(data):
        length, crc = struct.unpack_from("<II", data, offset)
        payload = data[offset + 8:offset + 8 + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        record = json.loads(payload)
        if record.get("op") == "commit":
            commits += 1
        elif record.get("op") == "checkpoint":
            commits = record["commits"]  # commits folded into the snapshot
        offset += 8 + length
    return commits


# ----------------------------------------------------------- schedules

def generate_schedule(seed):
    """A deterministic workload: a list of (kind, payload) steps.

    kinds: ``txn`` (list of actions + commit/rollback flag),
    ``auto`` (one autocommit action), ``checkpoint``.
    Actions are generated against a symbolic catalog so they always
    succeed — crash points are the only failures in a crash schedule.
    """
    rng = random.Random(seed)
    tables = {}  # name -> {"rows": n, "indexed": set of columns}
    counter = [0]

    def fresh_name():
        counter[0] += 1
        return "T%d_%d" % (seed % 100, counter[0])

    def make_action(state):
        choices = []
        if len(state) < 4:
            choices.append("create_table")
        if state:
            choices += ["insert", "insert", "insert"]
            if any(len(t["indexed"]) < 2 for t in state.values()):
                choices.append("create_index")
            if any(t["rows"] for t in state.values()):
                choices.append("analyze")
            if len(state) > 1 and rng.random() < 0.5:
                choices.append("drop_table")
        kind = rng.choice(choices)
        if kind == "create_table":
            name = fresh_name()
            state[name] = {"rows": 0, "indexed": set()}
            return ("create_table", name)
        name = rng.choice(sorted(state))
        if kind == "insert":
            rows = [(rng.randint(0, 50), rng.randint(0, 9),
                     "s%d" % rng.randint(0, 20))
                    for _ in range(rng.randint(1, 6))]
            state[name]["rows"] += len(rows)
            return ("insert", name, rows)
        if kind == "create_index":
            open_cols = [c for c in ("a", "b")
                         if c not in state[name]["indexed"]]
            if not open_cols:
                return make_action(state)
            column = rng.choice(open_cols)
            state[name]["indexed"].add(column)
            return ("create_index", name, column,
                    rng.choice(["hash", "sorted"]))
        if kind == "analyze":
            return ("analyze", name if rng.random() < 0.7 else None)
        del state[name]
        return ("drop_table", name)

    steps = []
    for _ in range(rng.randint(3, 7)):
        if rng.random() < 0.35:
            steps.append(("auto", make_action(tables)))
        else:
            commit = rng.random() >= 0.25
            if commit:
                actions = [make_action(tables)
                           for _ in range(rng.randint(1, 3))]
            else:
                shadow = {
                    name: {"rows": t["rows"],
                           "indexed": set(t["indexed"])}
                    for name, t in tables.items()
                }
                actions = [make_action(shadow)
                           for _ in range(rng.randint(1, 3))]
            steps.append(("txn", actions, commit))
        if rng.random() < 0.15:
            steps.append(("checkpoint",))
    return steps


def apply_action(db, action):
    kind = action[0]
    if kind == "create_table":
        db.create_table(action[1], COLUMNS)
    elif kind == "insert":
        db.insert(action[1], action[2])
    elif kind == "create_index":
        db.create_index(action[1], action[2], action[3])
    elif kind == "analyze":
        db.analyze(action[1])
    elif kind == "drop_table":
        db.drop_table(action[1])
    else:  # pragma: no cover - schedule generator bug
        raise AssertionError(kind)


def run_schedule(steps, durability, injector=None):
    """Run a schedule against a WAL-backed database; returns the
    storage and the committed batches in commit-issue order. With an
    armed injector the run ends at the simulated crash."""
    db = Database()
    db.configure(durability=durability)
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage, hook=injector))
    batches = []
    try:
        for step in steps:
            if step[0] == "auto":
                batches.append([step[1]])  # issue-order = commit-order
                apply_action(db, step[1])
            elif step[0] == "txn":
                _, actions, commit = step
                db.sql("BEGIN")
                for action in actions:
                    apply_action(db, action)
                if commit:
                    batches.append(actions)
                    db.sql("COMMIT")
                else:
                    db.sql("ROLLBACK")
            else:
                db.checkpoint()
    except SimulatedCrash:
        pass  # the process is dead; the in-memory db is abandoned
    return storage, batches


def oracle_db(batches, committed):
    """The shadow oracle: a fresh database that runs exactly the
    batches whose commits became durable, through the public API."""
    db = Database()
    for batch in batches[:committed]:
        for action in batch:
            apply_action(db, action)
    return db


# ------------------------------------------------------------ the sweep

def crash_points(seed, boundaries):
    """The boundaries to kill at for one schedule: all of them when few,
    otherwise a seeded sample — always including the first and last."""
    if boundaries <= KILLS_PER_SCHEDULE:
        return list(range(boundaries))
    rng = random.Random(seed * 7919 + 13)
    middle = rng.sample(range(1, boundaries - 1), KILLS_PER_SCHEDULE - 2)
    return sorted({0, boundaries - 1, *middle})


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_crash_schedule(seed):
    steps = generate_schedule(seed)
    durability = "commit" if seed % 2 else "lazy"
    probe = CrashInjector()  # dry run: count the kill points
    storage, batches = run_schedule(steps, durability, probe)
    assert probe.crashed is None

    # sanity: the no-crash log replays to exactly the full batch list
    final_image = storage.crash()  # everything, synced or not
    assert naive_committed_count(final_image) == len(batches)
    clean_db, report = recover(final_image)
    assert fingerprint(clean_db) == fingerprint(
        oracle_db(batches, len(batches)))
    assert report.total_commits == len(batches)

    rng = random.Random(seed * 31 + 7)
    for kill_at in crash_points(seed, probe.fired):
        injector = CrashInjector(kill_at=kill_at)
        storage, batches = run_schedule(steps, durability, injector)
        assert injector.crashed is not None, \
            "boundary %d never fired (seed %d)" % (kill_at, seed)
        survived = storage.crash(rng)  # seeded torn-tail disk image

        committed = naive_committed_count(survived)
        recovered, report = recover(survived)
        oracle = oracle_db(batches, committed)

        assert report.total_commits == committed, \
            "seed %d kill %d: recovery counted %d commits, naive %d" \
            % (seed, kill_at, report.total_commits, committed)
        assert fingerprint(recovered) == fingerprint(oracle), \
            "seed %d kill %d (%s, %d/%d commits durable): recovered " \
            "state diverges from the committed-only oracle" \
            % (seed, kill_at, durability, committed, len(batches))

        # the recovered database must be fully usable
        tables = recovered.catalog.tables()
        if tables:
            recovered.sql("SELECT a FROM %s WHERE a >= 0"
                          % tables[0].name)


# ------------------------------------------------- targeted regressions

def test_uncommitted_tail_discarded():
    """Ops written ahead of a commit record that never made it durable
    must vanish: redo without commit is not data."""
    db = Database()
    db.configure(durability="commit")
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage))
    db.create_table("R", COLUMNS)
    db.insert("R", [(1, 1, "x")])
    # forge an uncommitted tail: op records with no commit marker
    from repro.txn import encode_record
    storage.append(encode_record(
        {"t": 99, "op": "insert", "table": "R", "rows": [[9, 9, "z"]]}))
    recovered, report = recover(storage.crash())
    assert report.discarded_records == 1
    assert recovered.catalog.table("R").rows == [(1, 1, "x")]


def test_torn_final_record_tolerated():
    db = Database()
    db.configure(durability="commit")
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage))
    db.create_table("R", COLUMNS)
    db.insert("R", [(i, i, "s") for i in range(5)])
    whole = storage.crash()
    for cut in range(len(whole)):
        recovered, _ = recover(whole[:cut])
        # every prefix recovers SOME consistent committed state
        committed = naive_committed_count(whole[:cut])
        assert fingerprint(recovered) == fingerprint(oracle_db(
            [[("create_table", "R")],
             [("insert", "R", [(i, i, "s") for i in range(5)])]],
            committed))


def test_recovery_after_rollback_then_checkpoint_matches_content():
    """Rollback + checkpoint: recovery matches the live database
    exactly, and the committed-only oracle too."""
    db = Database()
    db.configure(durability="commit")
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage))
    db.create_table("R", COLUMNS)
    db.insert("R", [(1, 1, "x")])
    db.sql("BEGIN")
    db.insert("R", [(2, 2, "y")])
    db.sql("ROLLBACK")
    db.checkpoint()
    db.insert("R", [(3, 3, "z")])
    recovered, report = recover(storage.crash())
    assert report.checkpoint_used
    assert fingerprint(recovered) == fingerprint(db)
    oracle = oracle_db(
        [[("create_table", "R")], [("insert", "R", [(1, 1, "x")])],
         [("insert", "R", [(3, 3, "z")])]], 3)
    assert state_dict(recovered, include_index_entries=True) \
        == state_dict(oracle, include_index_entries=True)


def test_checkpoint_with_a_version_key_still_recovers():
    """Checkpoints written while the catalog kept a version counter
    carry a ``"version"`` key; loading ignores it."""
    db = Database()
    db.create_table("R", COLUMNS)
    db.insert("R", [(1, 1, "x"), (2, 2, "y")])
    db.analyze()
    state = json.loads(json.dumps(state_dict(db)))
    state["version"] = 17
    fresh = Database()
    load_state(fresh, state)
    assert fingerprint(fresh) == fingerprint(db)


def test_recovered_db_can_keep_going_durably(tmp_path):
    """Recover, attach a fresh WAL, continue committing, crash again,
    recover again: work from both lives survives."""
    db = Database()
    db.configure(durability="commit")
    first = MemoryStorage()
    db.attach_wal(WriteAheadLog(first))
    db.create_table("R", COLUMNS)
    db.insert("R", [(1, 1, "a")])

    db2, _ = recover(first.crash())
    db2.configure(durability="commit")
    second = MemoryStorage()
    db2.attach_wal(WriteAheadLog(second))
    db2.checkpoint()  # fold the recovered state into the new log
    db2.insert("R", [(2, 2, "b")])

    db3, report = recover(second.crash())
    assert report.checkpoint_used
    assert sorted(db3.catalog.table("R").rows) == [(1, 1, "a"),
                                                   (2, 2, "b")]
    assert fingerprint(db3) == fingerprint(db2)


def test_recovery_emits_event():
    db = Database()
    db.configure(durability="commit")
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage))
    db.create_table("R", COLUMNS)
    recovered, _ = recover(storage.crash(), log_events=True)
    events = recovered.event_log.events("recovery")
    assert len(events) == 1
    assert events[0]["commits_replayed"] == 1


def test_file_storage_end_to_end(tmp_path):
    """The same property through a real file: run, 'crash' by
    truncating the file, recover from the path."""
    path = str(tmp_path / "crash.wal")
    db = Database()
    db.configure(durability="commit", wal_path=path)
    db.create_table("R", COLUMNS)
    db.insert("R", [(i, i % 3, "r%d" % i) for i in range(10)])
    db.create_index("R", "a")
    db.analyze("R")
    db.txn._wal.close()

    with open(path, "rb") as handle:
        data = handle.read()
    torn = str(tmp_path / "torn.wal")
    with open(torn, "wb") as handle:
        handle.write(data[:-17])  # tear the final record

    recovered, report = recover(torn)
    assert report.torn_bytes > 0
    committed = naive_committed_count(data[:-17])
    assert report.total_commits == committed
    assert recovered.catalog.has_table("R")


# ----------------------------------------- crashes under concurrency

N_CONCURRENT_SCHEDULES = int(os.environ.get("CRASH_CONCURRENT_SCHEDULES",
                                            "60"))
K_COLUMNS = [("id", DataType.INT), ("v", DataType.INT)]


def naive_committed_ops(data: bytes):
    """Independent parse of the surviving bytes into the committed
    prefix: ``[(txn_id, [op_record, ...]), ...]`` in commit order,
    struct + zlib + json only (no checkpoint handling — the concurrent
    schedules never checkpoint)."""
    magic = b"REPROWAL1\x00"
    if len(data) < len(magic) or not data.startswith(magic):
        return []
    committed, pending = [], {}
    offset = len(magic)
    while offset + 8 <= len(data):
        length, crc = struct.unpack_from("<II", data, offset)
        payload = data[offset + 8:offset + 8 + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        record = json.loads(payload)
        if record.get("op") == "commit":
            committed.append((record["t"], pending.pop(record["t"], [])))
        else:
            pending.setdefault(record["t"], []).append(record)
        offset += 8 + length
    return committed


def apply_effects(committed):
    """The shadow oracle: apply the captured *effects* (concrete row
    values, not the original statements) through the public API of a
    fresh database. UPDATE shows up as delete_rows + insert; DELETE as
    delete_rows — replaying effects sidesteps re-running predicates
    whose answers depended on MVCC snapshots that no longer exist."""
    db = Database()
    for _txn_id, ops in committed:
        for record in ops:
            op = record["op"]
            if op == "insert":
                db.insert(record["table"],
                          [tuple(row) for row in record["rows"]])
            elif op == "delete_rows":
                db.delete_rows(record["table"],
                               [tuple(row) for row in record["rows"]])
            elif op == "create_table":
                db.create_table(record["name"],
                                [(name, DataType(dtype))
                                 for name, dtype, _w in record["columns"]])
            else:  # pragma: no cover - schedule generator bug
                raise AssertionError("unexpected op %r" % op)
    return db


def generate_concurrent_programs(rng, n_sessions):
    """Per-session transaction programs over the shared table K."""
    programs = []
    for session in range(n_sessions):
        program = []
        fresh = iter(range((session + 1) * 100, (session + 1) * 100 + 50))
        for _ in range(rng.randint(1, 3)):
            ops = []
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                if roll < 0.4:
                    ops.append("INSERT INTO K VALUES (%d, %d)"
                               % (next(fresh), rng.randint(0, 99)))
                elif roll < 0.8:
                    ops.append("UPDATE K SET v = %d WHERE id = %d"
                               % (rng.randint(0, 99), rng.randint(0, 9)))
                else:
                    ops.append("DELETE FROM K WHERE id = %d"
                               % rng.randint(0, 9))
            program.append((ops, rng.random() < 0.8))
        programs.append(program)
    return programs


def run_concurrent_schedule(seed, durability, injector=None):
    """Interleave several sessions' transactions statement by statement
    against a WAL-backed database; SerializationErrors roll the losing
    transaction back (normal operation), a SimulatedCrash abandons the
    process. Returns (storage, commits that returned successfully)."""
    from repro import SerializationError

    rng = random.Random(seed)
    db = Database()
    db.configure(durability=durability)
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage, hook=injector))
    returned_commits = 0
    try:
        db.create_table("K", K_COLUMNS)
        db.insert("K", [(i, 0) for i in range(10)])
        returned_commits = 2  # the two autocommits above
        sessions = [db.new_session("s%d" % i)
                    for i in range(rng.randint(2, 3))]
        programs = generate_concurrent_programs(rng, len(sessions))
        # flatten to per-session statement streams
        streams = []
        for program in programs:
            stream = []
            for ops, commit in program:
                stream.append("BEGIN")
                stream.extend(ops)
                stream.append("COMMIT" if commit else "ROLLBACK")
            streams.append(stream)
        cursors = [0] * len(streams)
        wrote = [False] * len(streams)
        while True:
            ready = [i for i in range(len(streams))
                     if cursors[i] < len(streams[i])]
            if not ready:
                break
            at = rng.choice(ready)
            stmt = streams[at][cursors[at]]
            cursors[at] += 1
            try:
                result = sessions[at].sql(stmt)
                if stmt.startswith("INSERT"):
                    wrote[at] = True
                elif stmt.startswith(("UPDATE", "DELETE")):
                    wrote[at] = wrote[at] or result.rows[0][0] > 0
                elif stmt == "BEGIN":
                    wrote[at] = False
                elif stmt == "COMMIT" and wrote[at]:
                    # a no-effect txn writes no commit record
                    returned_commits += 1
            except SerializationError:
                sessions[at].sql("ROLLBACK")
                while cursors[at] < len(streams[at]) and \
                        streams[at][cursors[at]] != "BEGIN":
                    cursors[at] += 1
    except SimulatedCrash:
        pass  # the process is dead; the in-memory db is abandoned
    return storage, returned_commits


@pytest.mark.parametrize("seed", range(N_CONCURRENT_SCHEDULES))
def test_concurrent_crash_schedule(seed):
    """Crashes with several sessions' transactions in flight: recovery
    keeps exactly the committed prefix the independent parser sees,
    state-identical to replaying the captured effects."""
    durability = "commit" if seed % 2 else "lazy"
    probe = CrashInjector()
    storage, returned = run_concurrent_schedule(seed, durability, probe)
    assert probe.crashed is None

    # no-crash sanity: full image == effect-replay of every commit
    full = storage.crash()
    recovered, report = recover(full)
    committed = naive_committed_ops(full)
    assert report.total_commits == len(committed) == returned
    assert fingerprint(recovered) == fingerprint(apply_effects(committed))

    rng = random.Random(seed * 13 + 5)
    for kill_at in crash_points(seed, probe.fired):
        injector = CrashInjector(kill_at=kill_at)
        storage, returned = run_concurrent_schedule(
            seed, durability, injector)
        assert injector.crashed is not None, \
            "boundary %d never fired (seed %d)" % (kill_at, seed)
        survived = storage.crash(rng)
        committed = naive_committed_ops(survived)
        recovered, report = recover(survived)
        assert report.total_commits == len(committed), \
            "seed %d kill %d: recovery %d commits, naive %d" \
            % (seed, kill_at, report.total_commits, len(committed))
        assert fingerprint(recovered) == fingerprint(
            apply_effects(committed)), \
            "seed %d kill %d (%s): recovered state diverges from the " \
            "committed-effects oracle" % (seed, kill_at, durability)
        if durability == "commit":
            # every COMMIT that returned had fsynced: it must survive
            assert len(committed) >= returned, \
                "seed %d kill %d: a returned commit vanished" \
                % (seed, kill_at)


def test_crash_with_inflight_transactions_keeps_committed_only():
    """Redo is buffered until COMMIT, so transactions still in flight
    at the crash leave no trace at all; committed concurrent work
    survives completely."""
    db = Database()
    db.configure(durability="commit")
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage))
    db.create_table("K", K_COLUMNS)
    db.insert("K", [(1, 10), (2, 20)])
    s1, s2 = db.new_session("s1"), db.new_session("s2")
    s1.sql("BEGIN")
    s1.sql("UPDATE K SET v = 11 WHERE id = 1")
    s2.sql("BEGIN")
    s2.sql("INSERT INTO K VALUES (3, 30)")
    s1.sql("COMMIT")
    # s2 still in flight -> crash
    recovered, report = recover(storage.crash())
    assert report.discarded_records == 0  # buffered, never appended
    assert sorted(recovered.catalog.table("K").rows) == [(1, 11), (2, 20)]


def test_crash_mid_commit_discards_torn_transaction():
    """A crash inside COMMIT's WAL append tears that transaction: its
    op records survive without the commit marker and recovery discards
    them, while the earlier concurrent commit stands."""
    db = Database()
    db.configure(durability="commit")
    storage = MemoryStorage()
    db.attach_wal(WriteAheadLog(storage))
    db.create_table("K", K_COLUMNS)
    db.insert("K", [(1, 10)])
    s1, s2 = db.new_session("s1"), db.new_session("s2")
    s1.sql("BEGIN")
    s1.sql("INSERT INTO K VALUES (2, 20)")
    s1.sql("COMMIT")
    s2.sql("BEGIN")
    s2.sql("INSERT INTO K VALUES (3, 30)")
    # tear s2's commit: the redo record goes out (boundaries 0/1 are
    # its append/appended), then the injector kills the commit-marker
    # append — op record on disk, no commit marker
    db.txn._wal.hook = CrashInjector(kill_at=2)
    with pytest.raises(SimulatedCrash):
        s2.sql("COMMIT")
    recovered, report = recover(storage.crash())
    assert report.discarded_records >= 1
    assert sorted(recovered.catalog.table("K").rows) == [(1, 10), (2, 20)]
