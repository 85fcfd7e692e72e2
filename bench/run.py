"""The benchmark's one command: every metric by name, with its unit,
and a check that the outputs are right.

    python3 bench/run.py                       # four workloads, 3 reps each,
                                               # then one traced run each
    python3 bench/run.py --workload served.mixed --seed 7 --trace 0
    python3 bench/run.py --smoke               # 1/20 scale, for CI

Each repetition runs in a fresh child process (``child.py``). The
end-to-end numbers come from the untraced repetitions and are reported
as the median over ``--reps`` with the min–max spread beside it; the
per-layer numbers come from a separate traced run. ``--seconds`` is the
whole timed budget of one workload and is split evenly over its
repetitions. Results go to ``--out`` as JSON (``compare.py`` reads two
of them); with a single ``--workload`` the last line of stdout is the
one-object summary the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
CONTRACT = REPO / "BENCHMARK.json"
#: a child gets this long; the contract allows a whole run 180 s
CHILD_TIMEOUT_S = 170
VERIFY_SAMPLE = 50
SMOKE_SCALE = 1 / 20


def run_child(workload: str, seed: int, seconds: float, trace: int,
              verify: int, scale: float) -> dict:
    """One repetition in a process of its own; its last stdout line is
    the report. The child's stderr (tracebacks, mismatches) passes
    through."""
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace),
         "--verify", str(verify), "--scale", repr(scale),
         "--spawned-at", repr(time.time())],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            # timed out or interrupted: take the child's whole group,
            # so that the server it may have started goes with it
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    if child.returncode != 0:
        raise SystemExit("bench: %s child exited with code %d"
                         % (workload, child.returncode))
    return json.loads(stdout.strip().splitlines()[-1])


def commit_hash():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload: str, args, contract: dict) -> dict:
    """All of one workload's runs: the untraced repetitions, then the
    traced run, as ``--trace`` selects."""
    entry = {"attempted": 0, "failed": 0}
    if args.trace != 1:
        reps = [run_child(workload, args.seed, args.seconds / args.reps, 0,
                          VERIFY_SAMPLE if rep == 0 else 0, args.scale)
                for rep in range(args.reps)]
        entry["end_to_end"] = {}
        for metric in contract["end_to_end"]:
            values = [rep[metric["name"]] for rep in reps]
            entry["end_to_end"][metric["name"]] = {
                "median": median(values), "min": min(values),
                "max": max(values), "unit": metric["unit"]}
        entry["reps"] = reps
        entry["attempted"] += sum(rep["attempted"] for rep in reps)
        entry["failed"] += sum(rep["failed"] for rep in reps)
    if args.trace != 0:
        traced = run_child(workload, args.seed, args.seconds, 1,
                           VERIFY_SAMPLE, args.scale)
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        entry["per_layer"] = {
            name: {"value": traced["layers"][name], "unit": unit}
            for name, unit in units.items()}
        entry["traced"] = traced
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
    entry["failed_share"] = entry["failed"] / entry["attempted"]
    return entry


def show(workload: str, why: str, entry: dict, args) -> None:
    print("\n%s — %s" % (workload, why))
    print("  failed_share %g  (%d of %d operations and checks)"
          % (entry["failed_share"], entry["failed"], entry["attempted"]))
    if "end_to_end" in entry:
        reps = entry["reps"]
        print("  end to end: median of %d repetition(s) of %.2f s, seed %d, "
              "%s operations [min – max]"
              % (len(reps), args.seconds / args.reps, args.seed,
                 "+".join(str(rep["ops"]) for rep in reps)))
        for name, m in entry["end_to_end"].items():
            print("    %-12s %12.4f %-4s [%.4f – %.4f]"
                  % (name, m["median"], m["unit"], m["min"], m["max"]))
        if all("op_p99_ms" in rep for rep in reps):
            print("    %-12s %12.4f ms   (not gated)" % (
                "op_p99_ms", median(rep["op_p99_ms"] for rep in reps)))
        print("    per class p50: " + ", ".join(
            "%s %.3f ms" % (cls, median(
                rep["classes"][cls]["p50_ms"] for rep in reps
                if cls in rep["classes"]))
            for cls in sorted({c for rep in reps for c in rep["classes"]})))
        if any(rep["stream_exhausted"] for rep in reps):
            print("    NOTE: the statement stream ran out before the "
                  "clock did; raise headroom_ops_per_s")
    if "per_layer" in entry:
        traced = entry["traced"]
        print("  per layer: traced run, %d sampled operations x %d pass(es)"
              % (traced["sampled_ops"], traced["passes"]))
        for name, m in entry["per_layer"].items():
            print("    %-32s %14.4f %s" % (name, m["value"], m["unit"]))
        print("    tracing overhead: traced p50 %.4f ms against untraced "
              "%.4f ms (%+.2f %%); trace written to %s"
              % (traced["traced_p50_ms"], traced["untraced_p50_ms"],
                 traced["layers"]["trace.overhead_pct"],
                 traced["trace_file"]))


def main(argv=None) -> int:
    if not (REPO / "src" / "repro").is_dir() or not CONTRACT.is_file():
        print("bench: needs the engine under src/repro and BENCHMARK.json "
              "beside bench/", file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT.read_text())
    whys = {w["name"]: w["why"] for w in contract["workloads"]}

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(whys),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="timed budget per workload, split over --reps")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0: untraced runs only; 1: the traced run "
                             "only; omitted: both")
    parser.add_argument("--out", type=Path,
                        default=BENCH / "out" / "results.json")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 scale, one repetition, verify pass on")
    args = parser.parse_args(argv)
    args.scale = 1.0
    if args.smoke:
        args.scale, args.reps = SMOKE_SCALE, 1
        args.seconds *= SMOKE_SCALE
    if args.reps < 1 or args.seconds <= 0:
        parser.error("--reps and --seconds must be positive")

    started = time.time()
    names = [args.workload] if args.workload else list(whys)
    results = {
        "meta": {
            "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
            "scale": args.scale, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "commit": commit_hash(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "loop": "closed; one thread per connection, at most 2",
            "flush_policy": "txn_write.durable: fsync at every commit",
        },
        "workloads": {},
    }
    for name in names:
        entry = measure(name, args, contract)
        entry["why"] = whys[name]
        results["workloads"][name] = entry
        show(name, whys[name], entry, args)
    results["meta"]["wall_s"] = time.time() - started
    print("\ntotal wall time %.1f s" % results["meta"]["wall_s"])

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1))
    print("results written to %s" % args.out)

    attempted = sum(e["attempted"] for e in results["workloads"].values())
    failed = sum(e["failed"] for e in results["workloads"].values())
    if len(names) == 1:
        entry = results["workloads"][names[0]]
        metrics = {name: {"value": m["median"], "unit": m["unit"]}
                   for name, m in entry.get("end_to_end", {}).items()}
        metrics.update(entry.get("per_layer", {}))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
