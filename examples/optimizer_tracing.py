"""Optimizer-observability tour: the search trace, why-not, event log.

Plans the paper's motivating query on the EmpDept workload with a
search trace and walks the DP lattice the optimizer explored — every
candidate it costed, which ones it pruned and why, and the exact
cost-ledger terms separating a rejected Filter/Bloom Join from the
plan that won. Then exports the trace (JSON + Graphviz DOT), turns on
the structured event log, and reads back one query's lifecycle.

Run:  python examples/optimizer_tracing.py
"""

import json
import os
import tempfile

from repro import OptimizerTrace
from repro.workloads import EmpDeptConfig, MOTIVATING_QUERY, fresh_empdept

QUERY = " ".join(MOTIVATING_QUERY.split())


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    db = fresh_empdept(EmpDeptConfig(
        num_departments=40, employees_per_department=15,
        big_fraction=0.2, young_fraction=0.3, seed=11,
    ))

    banner("EXPLAIN SEARCH: the DP lattice, pruning verdicts included")
    search_text = db.explain(QUERY, mode="search")
    lines = search_text.splitlines()
    shown = lines[:40]
    print("\n".join(shown))
    if len(lines) > len(shown):
        print("... (%d more lines)" % (len(lines) - len(shown)))

    banner('why_not: "why didn\'t the optimizer pick X?" has an answer')
    rejected = db.why_not(QUERY, "bloom")
    print(rejected.render())
    print()
    chosen = db.why_not(QUERY, "filter_join")   # alias: "magic"
    print(chosen.render())
    print()
    disabled = db.why_not(
        QUERY, "filter_join",
        config=db.config.replace(enable_filter_join=False,
                                 enable_bloom_filter=False),
    )
    print(disabled.render())

    banner("Capturing the raw trace: db.plan(QUERY, search=OptimizerTrace())")
    trace = OptimizerTrace()
    db.plan(QUERY, search=trace)
    verdicts = {}
    for record in trace.records:
        verdicts[record.verdict] = verdicts.get(record.verdict, 0) + 1
    print("%d candidates costed, %d of them in the chosen plan:"
          % (len(trace.records), sum(r.chosen for r in trace.records)))
    for verdict in sorted(verdicts):
        print("  %-28s %4d" % (verdict, verdicts[verdict]))
    saved = sum(anchor.plans_saved for anchor in trace.anchors)
    print("parametric costers: %d anchor sets, %d inner "
          "re-optimizations avoided" % (len(trace.anchors), saved))

    banner("Exporting the search trace (also: python -m repro dump-search)")
    tmpdir = tempfile.mkdtemp(prefix="repro_search_")
    json_path = os.path.join(tmpdir, "search.json")
    dot_path = os.path.join(tmpdir, "search.dot")
    try:
        with open(json_path, "w") as handle:
            handle.write(trace.to_json_str())
        with open(dot_path, "w") as handle:
            handle.write(trace.to_dot())
        document = json.load(open(json_path))
        print("wrote %s: format %s, %d records"
              % (json_path, document["format"], len(document["records"])))
        print("wrote %s: render with `dot -Tsvg` to see the lattice"
              % dot_path)
    finally:
        os.unlink(json_path)
        os.unlink(dot_path)
        os.rmdir(tmpdir)

    banner("The structured event log: one query's lifecycle as JSON lines")
    db.event_log.enable()
    traced = db.sql(QUERY)
    print("query id %s:" % traced.query_id)
    for line in db.event_log.to_jsonl().splitlines():
        print("  %s" % line)
    db.event_log.disable()

    banner("Planner counters ride the ordinary metrics registry")
    metrics = db.metrics()
    considered = metrics["planner_plans_considered_total"]["total"]
    kept = metrics["planner_memo_entries_total"]["total"]
    by_method = metrics["planner_candidates_total"]["by_label"]
    print("plans considered %d, memo entries kept %d" % (considered, kept))
    print("candidates by method: %s" % json.dumps(by_method))
    print("nested optimizations avoided by parametric costers: %d"
          % metrics["planner_parametric_plans_saved_total"]["total"])


if __name__ == "__main__":
    main()
