"""Golden snapshots of the optimizer's search trace.

For every query of the golden-plan corpus (``test_plan_golden``'s
workloads x regimes) ``tests/golden/search__<workload>__<regime>.txt``
records what an :class:`OptimizerTrace` reports about its planning:

- the sha256 of ``to_json_str()`` (every candidate record, verdict,
  skip and parametric anchor);
- ``render()``, verbatim when short and as a sha256 when long;
- ``why_not(m).render()`` for each canonical join method ``m``
  (a report identical to an earlier method's is written as a
  reference to it).

The trace is observation only, so these texts move only when the
search itself or the trace's own format does. To refresh after an
intentional change::

    PYTHONPATH=src python -m pytest tests/test_search_golden.py --update-golden
"""

import hashlib
from collections import Counter

import pytest

from repro import OptimizerTrace
from repro.obs.opttrace import METHOD_ALIASES

from tests.test_plan_golden import (
    REGIMES,
    WORKLOADS,
    _regime_config,
    _workload_db,
    check_golden,
)

#: ``render()`` texts longer than this are recorded by digest only
RENDER_VERBATIM_CHARS = 1000

METHODS = sorted(set(METHOD_ALIASES.values()))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def search_entry(key: str, sql: str, trace: OptimizerTrace) -> str:
    lines = ["-- %s: %s" % (key, " ".join(sql.split())),
             "json sha256: %s" % _sha256(trace.to_json_str())]
    rendered = trace.render()
    if len(rendered) > RENDER_VERBATIM_CHARS:
        lines.append("render sha256: %s" % _sha256(rendered))
    else:
        lines += ["render:", rendered]
    # each report's first line names its method; a report identical to
    # an earlier one ("magic" is the Filter Join on a flat query) is
    # written once
    seen = {}
    for method in METHODS:
        report = trace.why_not(method).render()
        if report in seen:
            lines.append("why-not %s: same as %s" % (method, seen[report]))
        else:
            seen[report] = method
            lines.append(report)
    return "\n".join(lines) + "\n"


def search_snapshot(db, queries, config) -> str:
    chunks = []
    for key, sql in queries:
        trace = OptimizerTrace()
        db.plan(sql, config, search=trace)
        chunks.append(search_entry(key, sql, trace))
    return "\n".join(chunks)


def test_method_list_is_the_twelve_canonical_names():
    assert len(METHODS) == 12


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_verdicts_match_planner_counts(workload, regime):
    """The trace's verdicts are the planner's: per join method, its
    candidates and pruned records equal ``PlannerMetrics``' counts."""
    db = _workload_db(workload)
    config = _regime_config(db, REGIMES[regime])
    for _key, sql in WORKLOADS[workload][1]:
        trace = OptimizerTrace()
        db.plan(sql, config, search=trace)
        assert Counter(r.method for r in trace.records) \
            == trace.metrics.candidates_by_method
        assert Counter(r.method for r in trace.records if r.pruned) \
            == trace.metrics.pruned_by_method


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_search_golden(workload, regime, update_golden):
    db = _workload_db(workload)
    config = _regime_config(db, REGIMES[regime])
    text = search_snapshot(db, WORKLOADS[workload][1], config)
    check_golden("search__%s__%s" % (workload, regime), text, update_golden)
