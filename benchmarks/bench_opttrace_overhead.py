"""Search-trace instrumentation overhead with tracing OFF: under 3%.

The optimizer-observability PR threads two things through the planner's
hottest loop (``_add_entry``): per-method candidate/pruned counters and
the trace hook points. With no :class:`OptimizerTrace` attached, the
only residual cost is the counter bookkeeping — the method-swap wrappers
never exist, so the planner runs its plain methods.

This benchmark enforces that residual: *planning time* for the EmpDept
motivating query with the instrumented ``_add_entry`` must stay within
``MAX_OVERHEAD`` of a faithful replica of the pre-instrumentation
(seed) ``_add_entry`` swapped onto the same class, A/B-interleaved on
the same database instance (min-of-trials).

Run standalone: ``PYTHONPATH=src python benchmarks/bench_opttrace_overhead.py``
"""

import gc
import time

from repro.optimizer.planner import Planner
from repro.workloads import EmpDeptConfig, MOTIVATING_QUERY, fresh_empdept

REPEATS = 8          # plans per timed trial
MAX_OVERHEAD = 0.03  # 3%
TRIALS = 25          # many short paired trials; min converges fast
ATTEMPTS = 3         # re-measure before declaring a regression

INSTRUMENTED_ADD_ENTRY = Planner._add_entry


def _seed_add_entry(self, table, candidate):
    """Byte-faithful replica of the seed's ``_add_entry`` (no
    per-method counters, no pruning verdicts)."""
    self.metrics.plans_considered += 1
    bucket = table.setdefault(candidate.aliases, {})
    entry_key = (candidate.sort_order, candidate.plan.site)
    incumbent = bucket.get(entry_key)
    if incumbent is None or candidate.cost < incumbent.cost:
        bucket[entry_key] = candidate
    same_site = [p for p in bucket.values()
                 if p.plan.site == candidate.plan.site]
    best_any = min(same_site, key=lambda p: p.cost)
    for key in list(bucket):
        order_key, site_key = key
        if site_key != candidate.plan.site or order_key is None:
            continue
        if bucket[key].cost > best_any.cost * 4:
            del bucket[key]


def bench_db():
    return fresh_empdept(EmpDeptConfig(
        num_departments=100, employees_per_department=10, seed=301,
    ))


def plan_loop(db, repeats=REPEATS):
    plan = None
    for _ in range(repeats):
        plan, _planner = db.plan(MOTIVATING_QUERY)
    return plan


def measured_overhead():
    """(overhead_fraction, seed_seconds, instrumented_seconds).

    Both variants plan on the *same* database (same catalog, same
    statistics); only ``Planner._add_entry`` is swapped between halves
    of each interleaved pair. Min-of-trials: noise only ever adds
    time, so the min converges on each variant's true cost.
    """
    db = bench_db()
    # warm both paths, and check the instrumentation is plan-neutral
    Planner._add_entry = _seed_add_entry
    expected = plan_loop(db, 2).explain()
    Planner._add_entry = INSTRUMENTED_ADD_ENTRY
    got = plan_loop(db, 2).explain()
    assert got == expected, "instrumented _add_entry changed the plan"

    best = {False: float("inf"), True: float("inf")}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for trial in range(TRIALS):
            order = (False, True) if trial % 2 == 0 else (True, False)
            for instrumented in order:
                Planner._add_entry = (
                    INSTRUMENTED_ADD_ENTRY if instrumented
                    else _seed_add_entry
                )
                started = time.perf_counter()
                plan_loop(db)
                elapsed = time.perf_counter() - started
                best[instrumented] = min(best[instrumented], elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
        Planner._add_entry = INSTRUMENTED_ADD_ENTRY
    seed, instrumented = best[False], best[True]
    return instrumented / seed - 1.0, seed, instrumented


def best_overhead(report=None):
    """Best of up to ``ATTEMPTS`` measurements (noise inflates, never
    deflates, so a genuine regression fails every attempt)."""
    best = None
    for _ in range(ATTEMPTS):
        result = measured_overhead()
        if report is not None:
            report(result)
        if best is None or result[0] < best[0]:
            best = result
        if best[0] < MAX_OVERHEAD:
            break
    return best


def test_search_tracing_off_overhead_under_3_percent():
    overhead, seed, instrumented = best_overhead()
    assert overhead < MAX_OVERHEAD, (
        "planner instrumentation overhead %.1f%% >= %.0f%% "
        "(seed %.3fs, instrumented %.3fs)"
        % (overhead * 100, MAX_OVERHEAD * 100, seed, instrumented)
    )


def main():
    def report(result):
        overhead, seed, instrumented = result
        print("seed planner: %.3fs min-trial (%.1f plans/s); "
              "instrumented: %.3fs (%.1f plans/s)  -> %+.1f%%"
              % (seed, REPEATS / seed, instrumented,
                 REPEATS / instrumented, overhead * 100))

    overhead, _seed, _instr = best_overhead(report)
    print("overhead: %+.1f%% (maximum allowed: %.0f%%)"
          % (overhead * 100, MAX_OVERHEAD * 100))
    if overhead >= MAX_OVERHEAD:
        raise SystemExit("FAIL: overhead above %.0f%%"
                         % (MAX_OVERHEAD * 100))
    print("OK")


if __name__ == "__main__":
    main()
