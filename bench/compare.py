"""Compare two results files of ``run.py``: A is the baseline, B the candidate.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric), judged against the bound
``BENCHMARK.json`` fixes for that metric:

- regressed:  B's median is worse than A's by more than the bound;
- improved:   B's median is better than A's by more than the bound;
- unresolved: neither, but the min–max spread of the repetitions (of A
  or of B) is wider than the bound, so "unchanged" cannot be claimed;
- unchanged:  otherwise.

Then one row per exact count of the traced runs (identical / differs),
for information. Exits 1 on any regressed row or a higher
``failed_share``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(base: dict, cand: dict, better: str, bound: float):
    """``(change, spread, word)``; ``change`` > 0 means B is worse."""
    change = (cand["median"] - base["median"]) / base["median"]
    if better == "higher":
        change = -change
    spread = max((m["max"] - m["min"]) / m["median"] for m in (base, cand))
    if change > bound:
        word = "regressed"
    elif change < -bound:
        word = "improved"
    elif spread > bound:
        word = "unresolved"
    else:
        word = "unchanged"
    return change, spread, word


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cand = (json.loads(Path(name).read_text())["workloads"]
                  for name in argv)
    metrics = json.loads(CONTRACT.read_text())["end_to_end"]
    bad = 0
    print("%-20s %-12s %12s %12s %8s %6s %7s  %s" % (
        "workload", "metric", "A median", "B median", "worse", "bound",
        "spread", "verdict"))
    for workload in base:
        if workload not in cand:
            continue
        a, b = base[workload], cand[workload]
        for metric in metrics:
            name = metric["name"]
            if name not in a.get("end_to_end", {}) \
                    or name not in b.get("end_to_end", {}):
                continue
            change, spread, word = verdict(
                a["end_to_end"][name], b["end_to_end"][name],
                metric["better"], metric["bound"])
            bad += word == "regressed"
            print("%-20s %-12s %12.4f %12.4f %+7.1f%% %5.0f%% %6.1f%%  %s" % (
                workload, name, a["end_to_end"][name]["median"],
                b["end_to_end"][name]["median"], 100 * change,
                100 * metric["bound"], 100 * spread, word))
        higher = b["failed_share"] > a["failed_share"]
        bad += higher
        print("%-20s %-12s %12g %12g %s" % (
            workload, "failed_share", a["failed_share"], b["failed_share"],
            "regressed" if higher else "unchanged"))
        if "traced" in a and "traced" in b:
            exact_a, exact_b = a["traced"]["exact"], b["traced"]["exact"]
            for name in exact_a:
                print("%-20s %-34s %s" % (
                    workload, name, "identical"
                    if exact_a[name] == exact_b.get(name) else
                    "differs: %s -> %s" % (exact_a[name], exact_b.get(name))))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
