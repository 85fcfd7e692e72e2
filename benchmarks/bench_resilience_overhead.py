"""Resilience-plumbing overhead: must stay under 5% with no faults.

The fault-injection layer touches the hottest paths in the engine —
every shipment routes through ``SimulatedNetwork.transfer``, deadlines
hook the per-row CPU charge, and stateful operators account their
working set against a memory budget. All three are engineered to cost
~nothing when idle (fast-path transfer, method-swap deadline hook
checked every 256 rows, 1024-row-chunked memory accounting).

``python benchmarks/bench_resilience_overhead.py`` runs the standalone
smoke check used by CI: the motivating EmpDept query with the full
resilience stack armed (network attached, deadline set, memory budget
set, zero faults) must run within ``MAX_OVERHEAD`` of the bare
configuration.
"""

import gc
import statistics
import time

from repro import Options
from repro.distributed import SimulatedNetwork
from repro.workloads import EmpDeptConfig, MOTIVATING_QUERY, fresh_empdept

REPEATS = 40
MAX_OVERHEAD = 0.05  # 5%
TRIALS = 7           # paired trials; the median ratio is what counts


def bench_db():
    return fresh_empdept(EmpDeptConfig(
        num_departments=100, employees_per_department=10, seed=301,
    ))


def run_loop(db, repeats=REPEATS, options=None):
    rows = None
    for _ in range(repeats):
        rows = db.sql(MOTIVATING_QUERY, options=options).rows
    return rows


def measured_overhead():
    """(overhead_fraction, bare_seconds, armed_seconds).

    Trials run in interleaved bare/armed pairs with GC off, and the
    overhead is the *median* of the per-pair ratios — machine-wide
    drift (GC pressure, turbo decay, noisy neighbors) hits both halves
    of a pair equally, and the median shrugs off a single descheduled
    trial that would poison a mean or even a best-of-N.
    """
    bare_db = bench_db()
    armed_db = bench_db()
    armed_db.network = SimulatedNetwork()  # attached, no fault plan
    armed_options = Options(timeout=3600.0,
                            memory_budget_bytes=1 << 30)
    # warm both paths (first-run costs: stats, imports, allocator)
    expected = run_loop(bare_db, 2)
    got = run_loop(armed_db, 2, armed_options)
    assert sorted(got) == sorted(expected), \
        "resilience plumbing changed the answer"

    ratios = []
    bare = armed = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(TRIALS):
            started = time.perf_counter()
            run_loop(bare_db)
            bare_trial = time.perf_counter() - started
            started = time.perf_counter()
            run_loop(armed_db, options=armed_options)
            armed_trial = time.perf_counter() - started
            ratios.append(armed_trial / bare_trial)
            bare = min(bare, bare_trial)
            armed = min(armed, armed_trial)
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(ratios) - 1.0, bare, armed


def test_no_fault_overhead_under_5_percent():
    overhead, bare, armed = measured_overhead()
    assert overhead < MAX_OVERHEAD, (
        "resilience overhead %.1f%% >= %.0f%% (bare %.3fs, armed %.3fs)"
        % (overhead * 100, MAX_OVERHEAD * 100, bare, armed)
    )


def main():
    overhead, bare, armed = measured_overhead()
    print("bare:  %.3fs for %d runs (%.1f q/s)"
          % (bare, REPEATS, REPEATS / bare))
    print("armed: %.3fs for %d runs (%.1f q/s)  "
          "[network + deadline + memory budget, no faults]"
          % (armed, REPEATS, REPEATS / armed))
    print("overhead: %+.1f%% (maximum allowed: %.0f%%)"
          % (overhead * 100, MAX_OVERHEAD * 100))
    if overhead >= MAX_OVERHEAD:
        raise SystemExit("FAIL: overhead above %.0f%%"
                         % (MAX_OVERHEAD * 100))
    print("OK")


if __name__ == "__main__":
    main()
