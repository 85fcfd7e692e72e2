"""One repetition of one workload, in a process of its own.

``run.py`` starts this once per repetition so that memory, the plan
cache and numpy's warm-up never leak from one measurement into the
next. Two modes:

- timed (``--trace 0``): set up, warm up, then run the closed loop for
  ``--seconds`` and report what a user sees (throughput, latency, RSS);
- traced (``--trace 1``): replay a seeded 1-in-10 sample of the
  workload, first the way a user would and then staged through each
  layer's public call with a span around every call, and report the
  per-layer numbers.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import threading
import time
from math import ceil, inf
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import repro  # noqa: E402
from repro.server.protocol import (HEADER, decode_payload,  # noqa: E402
                                   encode_frame, result_payload)
from repro.sql import parse  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import CHECKPOINT, OUT, WORKLOADS, seeded  # noqa: E402

QUERY_STATEMENTS = ("SelectStmt", "UnionStmt", "WithStmt")


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(len(ordered) - 1, max(0, ceil(q * len(ordered)) - 1))]


def ms(seconds: float) -> float:
    return seconds * 1e3


# ----------------------------------------------------------- closed loop

def drive(w, conn: int, ops: list, seconds: float, barrier, out: list):
    """One connection's closed loop: the next operation is sent when
    the previous one has returned. Ends at the deadline or when the
    stream does. An operation that raises a typed engine error (or
    loses its socket) counts as failed; anything else is a bug in the
    benchmark and ends the run."""
    execute = w.execute
    latencies, failed = [], 0
    if barrier is not None:
        barrier.wait()
    start = end = perf_counter()
    deadline = start + seconds
    for op in ops:
        began = perf_counter()
        try:
            execute(op, conn)
        except (repro.ReproError, OSError):
            failed += 1
        end = perf_counter()
        latencies.append(end - began)
        if end >= deadline:
            break
    out[conn] = (start, end, latencies, failed)


def run_connections(w, streams: list, seconds: float) -> list:
    """Drive every connection's stream, one thread per connection (the
    calling thread itself when there is only one)."""
    out = [None] * len(streams)
    if len(streams) == 1:
        drive(w, 0, streams[0], seconds, None, out)
        return out
    barrier = threading.Barrier(len(streams))
    threads = [threading.Thread(target=drive,
                                args=(w, conn, ops, seconds, barrier, out))
               for conn, ops in enumerate(streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if None in out:
        raise RuntimeError("a connection thread died; see its traceback")
    return out


def verify(w, executed: list, sample_size: int) -> tuple:
    """The workload's verify pass (skipped when ``sample_size`` is 0);
    says on stderr what differed. Returns ``(checked, mismatches)``."""
    if not sample_size:
        return 0, 0
    checked, differed = w.verify(executed, sample_size)
    for text in differed:
        print("MISMATCH: %s" % text, file=sys.stderr)
    return checked, len(differed)


def class_medians(by_class: dict) -> dict:
    return {cls: {"n": len(values), "p50_ms": ms(median(values))}
            for cls, values in sorted(by_class.items()) if values}


# ------------------------------------------------------------ timed mode

def run_timed(w, args) -> dict:
    length = w.stream_length(args.seconds)
    streams = [w.generate(conn, length) for conn in range(w.connections)]
    warm = w.warmup_ops
    w.open()
    try:
        warmed = run_connections(w, [ops[:warm] for ops in streams], inf)
        gc.collect()
        gc.freeze()
        setup_s = time.time() - args.spawned_at
        out = run_connections(w, [ops[warm:] for ops in streams],
                              args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        executed = [ops[:warm + len(result[2])]
                    for ops, result in zip(streams, out)]
        checked, differed = verify(w, executed, args.verify)
    finally:
        w.close()
    if w.server_rss_kb is not None:
        rss_kb = w.server_rss_kb
    latencies, by_class = [], {}
    for ops, (_start, _end, values, _failed) in zip(streams, out):
        latencies.extend(values)
        for (cls, _texts), value in zip(ops[warm:], values):
            by_class.setdefault(cls, []).append(value)
    latencies.sort()
    wall = max(r[1] for r in out) - min(r[0] for r in out)
    raised = sum(r[3] for r in warmed) + sum(r[3] for r in out)
    report = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": ms(percentile(latencies, 0.50)),
        "op_p95_ms": ms(percentile(latencies, 0.95)),
        "peak_rss_mb": rss_kb / 1024.0,
        "ops": len(latencies),
        "timed_s": wall,
        "stream_exhausted": any(len(r[2]) == len(ops) - warm
                                for ops, r in zip(streams, out)),
        "attempted": warm * w.connections + len(latencies) + checked,
        "failed": raised + differed,
        "verified": checked,
        "classes": class_medians(by_class),
    }
    if len(latencies) >= 1000:
        report["op_p99_ms"] = ms(percentile(latencies, 0.99))
    return report


# ----------------------------------------------------------- traced mode

def bind(db, statement):
    binder = db.binder()
    kind = type(statement).__name__
    if kind == "WithStmt":
        return binder.bind_with(statement)
    if kind == "UnionStmt":
        return binder.bind_union(statement)
    return binder.bind(statement)


def wal_counters(db) -> tuple:
    """(bytes, syncs, commits) the WAL has taken so far — cumulative,
    because a checkpoint truncates the file."""
    status = db.txn.status()
    wal = status.get("wal", {})
    return (wal.get("bytes_written", 0), wal.get("syncs", 0),
            status["wal_commits"])


class Staged:
    """Replays operations through each layer's public call in turn —
    parse, bind, plan, run — with a span around each call, and keeps
    the counts those calls hand back (planner metrics, estimated and
    measured cost, the cost ledger, rows, WAL bytes)."""

    def __init__(self, w, tracer: Tracer):
        self.w = w
        self.db = w.local()
        self.tracer = tracer
        self.ops = 0
        self.planned = 0
        self.plans_considered = 0
        self.dp_entries = 0
        self.nested_optimizations = 0
        self.qerrors = []
        self.rows_out = 0
        self.rows_written = 0
        self.wal = [0, 0, 0]
        self.ledger = {}

    def run(self, op) -> None:
        self.ops += 1
        if op[0] in self.w.read_classes:
            self.query(op)
        elif self.w.durable:
            before = wal_counters(self.db)
            self.write(op)
            for i, after in enumerate(wal_counters(self.db)):
                self.wal[i] += after - before[i]
        else:
            self.write(op)

    def query(self, op) -> None:
        db, span, stmt = self.db, self.tracer.span, self.ops
        with span("op:" + op[0], stmt):
            with span("sql.parse", stmt):
                statement = parse(op[1][0])
            with span("sql.bind", stmt):
                block = bind(db, statement)
            with span("optimizer.plan", stmt):
                plan, planner = db.plan(block)
            with span("executor.run", stmt):
                result = db.run_plan(plan, planner.metrics)
        metrics = planner.metrics
        self.planned += 1
        self.plans_considered += metrics.plans_considered
        self.dp_entries += metrics.dp_entries
        self.nested_optimizations += metrics.nested_optimizations
        estimated, measured = plan.est_cost, result.measured_cost()
        if estimated > 0 and measured > 0:
            self.qerrors.append(max(estimated / measured,
                                    measured / estimated))
        self.rows_out += len(result.rows)
        for component, units in result.ledger.as_dict().items():
            self.ledger[component] = self.ledger.get(component, 0.0) + units

    def write(self, op) -> None:
        """DML and transaction control have no stages a caller can
        reach one by one: the engine runs each from its text in one
        call, so the span is that call, named after the verb."""
        db, span, stmt = self.db, self.tracer.span, self.ops
        with span("op:" + op[0], stmt):
            for text in op[1]:
                verb = text.split(None, 1)[0].lower()
                with span("txn." + verb, stmt):
                    if text == CHECKPOINT:
                        db.checkpoint()
                    else:
                        result = db.sql(text)
                if verb in ("insert", "update", "delete"):
                    self.rows_written += result.rows[0][0]

    def exact(self) -> dict:
        """The counts that must repeat bit for bit on the same commit
        and seed, per sampled operation (planner counts per planned
        statement, WAL bytes per commit)."""
        planned = max(self.planned, 1)
        wal_bytes, wal_syncs, commits = self.wal
        return {
            "optimizer.plans_considered": self.plans_considered / planned,
            "optimizer.dp_entries": self.dp_entries / planned,
            "optimizer.nested_optimizations":
                self.nested_optimizations / planned,
            "executor.rows_out": self.rows_out / self.ops,
            "ledger.units_per_op": sum(self.ledger.values()) / self.ops,
            "ledger.components_per_op": {
                name: units / self.ops
                for name, units in sorted(self.ledger.items())},
            "txn.wal_bytes_per_commit":
                wal_bytes / commits if commits else 0.0,
            "txn.wal_syncs": wal_syncs,
            "txn.wal_write_amp": (
                wal_bytes / (self.rows_written * self.w.row_bytes)
                if wal_bytes and self.rows_written else 0.0),
        }


def replay_over_wire(w, samples, tracer, by_class) -> int:
    """The sample as requests, every connection at once; one flat span
    per request on the connection's own track. Returns how many
    requests failed."""
    failed = 0
    out = run_connections(w, samples, inf)
    for conn, (ops, (start, _end, values, raised)) in enumerate(
            zip(samples, out)):
        failed += raised
        # requests run back to back, so each one's start is the
        # previous one's end (less the loop's own microseconds)
        for op, value in zip(ops, values):
            by_class.setdefault(op[0], []).append(value)
            tracer.add("server.request:" + op[0], start, start + value,
                       0, conn + 1)
            start += value
    return failed


def run_traced(w, args) -> dict:
    streams = [w.generate(conn, w.nominal_ops)
               for conn in range(w.connections)]
    # every tenth operation from a seeded offset: keeps the class mix
    offset = seeded(w.seed, "trace sample").randrange(10)
    samples = [ops[offset::10] for ops in streams]
    sample = [op for ops in samples for op in ops]
    served = w.connections > 1
    tracer = Tracer()
    layer = dict.fromkeys((
        "storage.scan_after_write_ms", "storage.scan_steady_ms",
        "txn.checkpoint_ms", "txn.recover_s", "server.ping_ms",
        "server.codec_ms", "server.overhead_ms", "server.errors"), 0.0)
    w.open()
    try:
        staged = Staged(w, tracer)
        layer["storage.load_rows_per_s"] = w.load_rows / w.load_seconds
        executed = [[] for _ in streams]
        served_by_class, direct_by_class, direct, results = {}, {}, [], []
        failed = 0
        cache_before = w.cache_stats()
        started = perf_counter()
        passes = 0
        while True:
            passes += 1
            if served:
                failed += replay_over_wire(w, samples, tracer,
                                           served_by_class)
                for conn, ops in enumerate(samples):
                    executed[conn].extend(ops)
            # each operation twice in process: the way an embedded user
            # issues it, and staged with spans — taking turns at going
            # first, so that neither always finds the caches warm
            for index, op in enumerate(sample):
                if index % 2:
                    staged.run(op)
                began = perf_counter()
                result = w.execute_local(op)
                value = perf_counter() - began
                if not index % 2:
                    staged.run(op)
                direct.append(value)
                direct_by_class.setdefault(op[0], []).append(value)
                if served and passes == 1 and op[0] in w.read_classes:
                    results.append(result)  # for the codec timing
                if not served:
                    executed[0].extend((op, op))
            if passes == 1:
                cache_after = w.cache_stats()
                exact = staged.exact()
                layer.update(storage_and_txn_layers(
                    w, staged.db, streams[0], executed[0]))
            if perf_counter() - started >= args.seconds:
                break
        overhead_by_class = {}
        if served:
            overhead_by_class = {
                cls: ms(median(values) - median(direct_by_class[cls]))
                for cls, values in served_by_class.items()}
            layer["server.overhead_ms"] = overhead_by_class["point"]
            layer.update(server_layers(w.clients[0], results))
        checked, differed = verify(w, executed, args.verify)
    finally:
        w.close()

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / ("trace_%s.json" % w.name)
    tracer.write_chrome_trace(trace_file, "bench " + w.name)

    traced_p50 = median(tracer.durations_ms("op"))
    direct_p50 = ms(median(direct))
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    layer.update({
        "sql.parse_ms": tracer.median_ms("sql.parse"),
        "sql.bind_ms": tracer.median_ms("sql.bind"),
        "optimizer.plan_ms": tracer.median_ms("optimizer.plan"),
        "optimizer.cost_qerror_p50":
            median(staged.qerrors) if staged.qerrors else 0.0,
        "plancache.hit_rate": hits / lookups if lookups else 0.0,
        "plancache.evictions":
            cache_after["evictions"] - cache_before["evictions"],
        "executor.run_ms": tracer.median_ms("executor.run"),
        "txn.commit_ms": tracer.median_ms("txn.commit"),
        "trace.overhead_pct":
            100.0 * (traced_p50 - direct_p50) / direct_p50,
    })
    layer.update({name: value for name, value in exact.items()
                  if not isinstance(value, dict)})
    return {
        "layers": layer,
        "exact": exact,
        "sampled_ops": len(sample),
        "passes": passes,
        "traced_p50_ms": traced_p50,
        "untraced_p50_ms": direct_p50,
        "bench_self_ms": median(tracer.self_ms("op")),
        "span_medians_ms": tracer.medians_by_name(),
        "classes": {
            "untraced": class_medians(direct_by_class),
            "served": class_medians(served_by_class),
        },
        "server_overhead_by_class_ms": overhead_by_class,
        "trace_file": str(trace_file.relative_to(BENCH.parent)),
        "attempted": (2 + served) * len(sample) * passes + checked,
        "failed": failed + differed,
        "verified": checked,
    }


def storage_and_txn_layers(w, db, stream, executed) -> dict:
    """Run once, after the first pass: an explicit vacuum, and on the
    durable workload a scan right after a commit against the same scan
    repeated, recovery from the WAL file's bytes (replaying the pass's
    commits), and then a checkpoint."""
    layer = {}
    if w.durable:
        scan = next(op for op in stream if op[0] == "scan")
        transfers = (op for op in stream if op[0] == "xfer")
        after, steady = [], []
        for _ in range(5):
            write = next(transfers)
            w.execute(write)
            executed.append(write)
            for timings in (after, steady):
                began = perf_counter()
                w.execute(scan)
                timings.append(perf_counter() - began)
        layer["storage.scan_after_write_ms"] = ms(median(after))
        layer["storage.scan_steady_ms"] = ms(median(steady))
    began = perf_counter()
    reclaimed = db.vacuum()
    layer["storage.vacuum_ms"] = ms(perf_counter() - began)
    layer["storage.versions_reclaimed"] = sum(reclaimed.values())
    if w.durable:
        with open(w.wal_path, "rb") as handle:
            wal_bytes = handle.read()
        began = perf_counter()
        repro.recover(wal_bytes)
        layer["txn.recover_s"] = perf_counter() - began
        began = perf_counter()
        db.checkpoint()
        layer["txn.checkpoint_ms"] = ms(perf_counter() - began)
    return layer


def server_layers(client, results) -> dict:
    """What the wire adds besides the engine: an empty round trip and
    the codec alone on the sampled results; and what it refused."""
    pings = []
    for _ in range(200):
        began = perf_counter()
        client.ping()
        pings.append(perf_counter() - began)
    codec = []
    for result in results[:200]:
        began = perf_counter()
        frame = encode_frame(result_payload(result))
        decode_payload(frame[HEADER.size:])
        codec.append(perf_counter() - began)
    errors = client.metrics().get("server_errors_total", {})
    return {
        "server.ping_ms": ms(median(pings)),
        "server.codec_ms": ms(median(codec)),
        "server.errors": errors.get("total", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--verify", type=int, default=0,
                        help="statements to check against sqlite3 "
                             "(0 = skip the verify pass)")
    parser.add_argument("--spawned-at", type=float, default=time.time(),
                        help="time.time() when the parent started us")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload](args.seed, args.scale)
    report = run_traced(w, args) if args.trace else run_timed(w, args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
