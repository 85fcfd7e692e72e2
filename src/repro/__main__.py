"""``python -m repro`` starts the interactive SQL shell.

``python -m repro dump-search`` instead exports one query's optimizer
search trace (the full DP lattice with pruning verdicts) as JSON or
Graphviz DOT — the same data behind ``db.explain(sql, mode="search")``::

    python -m repro dump-search                          # empdept, JSON
    python -m repro dump-search --format dot -o s.dot    # Graphviz
    python -m repro dump-search --workload star "SELECT ..."

``python -m repro serve`` starts the TCP SQL server (length-prefixed
JSON frames; see docs/server.md)::

    python -m repro serve --port 7878
    python -m repro serve --workload empdept --durability lazy --wal db.wal
    python -m repro serve --slow-query 0.05

``python -m repro top`` renders a live snapshot of a running server —
connections, per-kind latency, open sessions, the slow-query log,
drift by table, and adaptive maintenance counters::

    python -m repro top --port 7878
    python -m repro top --watch 2        # refresh every 2 seconds
"""

import sys

#: default query for the star workload (empdept defaults to the
#: paper's motivating query)
_STAR_DEFAULT_QUERY = (
    "SELECT C.region, V.total_spend FROM Customer C, CustSpend V "
    "WHERE C.cust_id = V.cust_id AND C.segment = 1"
)


def _dump_search(argv) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro dump-search",
        description="Export a query's optimizer search trace "
                    "(DP lattice, pruning verdicts, parametric anchors).",
    )
    parser.add_argument("--workload", choices=("empdept", "star"),
                        default="empdept",
                        help="built-in dataset to plan against")
    parser.add_argument("--format", choices=("json", "dot"),
                        default="json", dest="fmt",
                        help="JSON search graph or Graphviz DOT")
    parser.add_argument("-o", "--output", default="-",
                        help="output path ('-' for stdout)")
    parser.add_argument("sql", nargs="?", default=None,
                        help="query to trace (defaults to the "
                             "workload's motivating query)")
    args = parser.parse_args(argv)

    from .database import Database
    from .obs.opttrace import OptimizerTrace

    db = Database()
    if args.workload == "empdept":
        from .workloads import MOTIVATING_QUERY, build_empdept

        build_empdept(db)
        sql = args.sql or MOTIVATING_QUERY
    else:
        from .workloads import build_star

        build_star(db)
        sql = args.sql or _STAR_DEFAULT_QUERY

    search = OptimizerTrace()
    db.plan(sql, search=search)
    text = (search.to_json_str() if args.fmt == "json"
            else search.to_dot())
    if args.output == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        sys.stderr.write("wrote %s search trace to %s\n"
                         % (args.fmt, args.output))
    return 0


def _serve(argv) -> int:
    import argparse
    import asyncio

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a database over TCP (length-prefixed JSON "
                    "frames; one MVCC session per connection).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7878,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument("--workload", choices=("empdept", "star"),
                        default=None,
                        help="preload a built-in dataset")
    parser.add_argument("--durability", choices=("off", "lazy", "commit"),
                        default="off")
    parser.add_argument("--wal", default=None, metavar="PATH",
                        help="WAL file path (durability must be on); "
                             "an existing log is recovered first")
    parser.add_argument("--log-events", action="store_true",
                        help="stream the structured event log to stderr")
    parser.add_argument("--slow-query", type=float, default=None,
                        metavar="SECONDS",
                        help="slow-query threshold in seconds: a "
                             "statement this slow is recorded with its "
                             "plan (default 0.25)")
    parser.add_argument("--adaptive", action="store_true",
                        help="enable drift-triggered adaptive "
                             "re-analyze")
    args = parser.parse_args(argv)

    import os

    from .database import Database
    from .server import Server

    recovered = False
    if args.wal and os.path.exists(args.wal) and \
            os.path.getsize(args.wal) > 0:
        from .txn import recover

        db, report = recover(args.wal)
        recovered = True
        sys.stderr.write(
            "recovered %d commit(s) from %s\n"
            % (report.total_commits, args.wal))
    else:
        db = Database()
    if args.durability != "off":
        db.configure(durability=args.durability, wal_path=args.wal)
    if args.workload and not recovered:
        # A recovered WAL already replays the preload's DDL; building
        # the workload again would collide with the recovered tables.
        from .workloads import build_empdept, build_star

        (build_empdept if args.workload == "empdept" else build_star)(db)
    if args.log_events:
        db.event_log.enable(sink=sys.stderr)
    if args.slow_query is not None:
        db.configure(slow_query_seconds=args.slow_query)
    if args.adaptive:
        db.configure(adaptive=True)

    async def run() -> None:
        server = await Server(db, args.host, args.port).start()
        sys.stderr.write("repro server listening on %s:%d\n"
                         % server.address)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        sys.stderr.write("server stopped\n")
    return 0


def _top(argv) -> int:
    import argparse
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Render a live snapshot of a running repro server "
                    "(latency, sessions, slow queries, drift, adaptive "
                    "actions).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7878)
    parser.add_argument("--watch", type=float, default=None,
                        metavar="SECONDS",
                        help="refresh every SECONDS until interrupted "
                             "(default: render once and exit)")
    args = parser.parse_args(argv)

    from .server import Client
    from .server.top import fetch_snapshot

    try:
        with Client(args.host, args.port) as client:
            address = "%s:%d" % (args.host, args.port)
            while True:
                panel = fetch_snapshot(client, address=address)
                if args.watch is not None:
                    # clear-screen escape keeps the panel in place
                    sys.stdout.write("\x1b[2J\x1b[H")
                sys.stdout.write(panel + "\n")
                sys.stdout.flush()
                if args.watch is None:
                    return 0
                time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        sys.stderr.write("cannot reach repro server at %s:%d: %s\n"
                         % (args.host, args.port, exc))
        return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "dump-search":
        return _dump_search(argv[1:])
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    if argv and argv[0] == "top":
        return _top(argv[1:])
    from .shell import main as shell_main

    return shell_main(argv)


if __name__ == "__main__":
    sys.exit(main())
