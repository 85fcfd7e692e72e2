"""What the join DP builds: the plan it returns, not every plan it costs.

A candidate in the DP is its numbers (rows, ledger, cost, site, join
method) plus a recipe for its plan nodes. Without a search trace the
recipe runs only for the entries a block's plan is made of, so the
nodes built per statement are about the nodes returned, whatever the
number of candidates. These are deterministic counts over a seeded
stream of Figure-1 statements (distinct constants, as the benchmark's
``magic_view.cold`` issues them), planned through the shared
restriction memo the way ``Database.plan`` plans them.
"""

import random

import pytest

from repro.ledger import CostLedger
from repro.optimizer.planner import Planner
from repro.optimizer.plans import PlanNode
from repro.workloads import EmpDeptConfig, fresh_empdept

from tests.conftest import python_calls

FIG1 = ("SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V "
        "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
        "AND E.age < %d AND D.budget > %d")
CONFIG = EmpDeptConfig(num_departments=100, employees_per_department=20,
                       seed=7)
WARMUP, MEASURED = 10, 20

NODE_INIT = PlanNode.__init__.__code__
LEDGER_INIT = CostLedger.__init__.__code__


class ChainPlanner(Planner):
    """Keeps every candidate the DP saw and, per block, the entries its
    plan is built from (the winner and its chain of outer inputs)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []
        self.chains = set()

    def _add_entry(self, table, candidate):
        self.seen.append(candidate)
        super()._add_entry(table, candidate)

    def _plan_joins(self, block):
        best = entry = super()._plan_joins(block)
        while entry is not None:
            self.chains.add(id(entry))
            entry = entry.parent
        return best


@pytest.fixture(scope="module")
def stream():
    db = fresh_empdept(CONFIG)
    rng = random.Random(7)
    texts = []
    while len(texts) < WARMUP + MEASURED:
        text = FIG1 % (rng.randint(24, 45), rng.randint(100_000, 800_000))
        if text not in texts:
            texts.append(text)
    for text in texts[:WARMUP]:
        db.plan(text)  # statistics settle, the memo holds the classes
    return db, [db.bind(text) for text in texts[WARMUP:]]


def plan_counted(db, block):
    planner = ChainPlanner(db.catalog, db.config, memo=db.restriction_memo)
    entered, plan = python_calls(planner.plan, block)
    nodes = sum(1 for code in entered if code is NODE_INIT)
    ledgers = sum(1 for code in entered if code is LEDGER_INIT)
    return planner, plan, nodes, ledgers


def test_nodes_are_built_for_the_plan_not_the_candidates(stream):
    """Per statement, about the nodes of the plan returned (templates
    included: a statement whose classes are not memoised yet also
    builds each anchor's plan), not one subtree per candidate."""
    db, blocks = stream
    considered = entries = nodes = ledgers = 0
    for block in blocks:
        planner, _plan, built, made = plan_counted(db, block)
        considered += planner.metrics.plans_considered
        entries += planner.metrics.dp_entries
        nodes += built
        ledgers += made
        assert len(planner.seen) > 2 * built
    # built for every candidate, this stream cost 194 nodes and 820
    # ledgers per statement
    assert nodes <= 40 * len(blocks), nodes
    assert ledgers <= 520 * len(blocks), ledgers
    # and the search is the same: the same candidates, the same entries
    assert (considered, entries) == (1963, 592)


def test_an_untraced_loser_is_never_built(stream):
    db, blocks = stream
    for block in blocks:
        planner, _plan, _nodes, _ledgers = plan_counted(db, block)
        built = [c for c in planner.seen if c._plan is not None]
        assert built
        assert all(id(c) in planner.chains for c in built)
