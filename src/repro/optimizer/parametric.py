"""Parametric costing of the restricted inner (Section 4.2).

Costing a Filter Join needs the cost and output cardinality of the inner
relation *as restricted by a filter set* — a function of the filter set's
cardinality. Computing it exactly requires a nested invocation of the
optimizer per candidate, which would wreck Assumption 1 (O(1) costing).

Following the paper, :class:`ParametricInnerCoster` plans the restricted
inner only at a small number of *equivalence classes* — anchor filter-set
cardinalities spread geometrically over the join-column domain — then:

- fits a straight line to the anchors' output cardinalities (Figure 4),
- answers cost queries with the nearest class's planned cost (Figure 5).

The number of classes is the paper's performance "knob": more classes,
more nested optimizations, better estimates. Setting ``enabled=False``
reverts to exact nested optimization on every costing call, which
experiment F5 uses to measure what the knob buys.

The classes are a property of the inner, not of the statement that
first asked for them: :class:`RestrictionMemo` keeps their numbers
across statements, and a coster that finds them there plans nothing
until the winning plan needs one of its templates.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..ledger import CostLedger
from ..rewrite.magic import RestrictedInner
from .plans import DeferredTemplateNode, PlanNode


@dataclass
class EquivalenceClass:
    """One planned anchor: a filter-set cardinality and its plan's
    numbers. Its plan is the planned template or, when the numbers came
    from the restriction memo, a :class:`DeferredTemplateNode` made on
    first read, which plans the anchor by ``plan_anchor`` only if the
    winning plan needs it."""

    anchor_rows: float
    cost: float
    rows: float
    components: CostLedger
    _plan: Optional[PlanNode] = None
    plan_anchor: Optional[Callable[[float], PlanNode]] = None

    @property
    def plan(self) -> PlanNode:
        if self._plan is None:
            node = self._plan = DeferredTemplateNode(
                self.anchor_rows, lambda: self.plan_anchor(self.anchor_rows))
            node.est_cost, node.est_rows = self.cost, self.rows
            node.est_components = self.components
        return self._plan


# builder(assumed_rows, assumed_selectivity) -> RestrictedInner
Builder = Callable[[float, float], RestrictedInner]
# plan_fn(block) -> PlanNode  (a nested optimizer invocation)
PlanFn = Callable[..., PlanNode]
# What the restriction memo keeps per coster: ((slope, intercept),
# ((anchor rows, cost, rows, est_components as six floats), ...)).
# Numbers only. A template plan carries the statement's own filter-set
# parameter id, and a few hundred kept plans showed as resident memory,
# so plans never go in.
ClassNumbers = Tuple[Tuple[float, float], Tuple[tuple, ...]]


class RestrictionMemo:
    """Equivalence-class numbers that outlive the statement.

    The classes of one coster depend on the inner relation, the bound
    columns, the inner's local predicates, the optimizer config and
    what the planner reads of the inner's relations, not on the query
    around them, so a :class:`~repro.database.Database` keeps one memo
    and hands it to every planner. Each entry carries the
    :meth:`~repro.storage.catalog.Catalog.inputs` of the inner's
    relations taken when its classes were planned; a lookup under other
    inputs drops the entry and misses. Beyond ``CAPACITY`` entries
    (about 1 KiB of floats each) the least recently used one goes.
    """

    CAPACITY = 512

    def __init__(self):
        # key -> (inputs, numbers)
        self._entries: "OrderedDict[tuple, Tuple[tuple, ClassNumbers]]" = (
            OrderedDict())
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # shared by every session of a served database
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:  # never mid-store, where the bound is open
            return len(self._entries)

    def lookup(self, key: tuple, inputs: tuple) -> Optional[ClassNumbers]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] != inputs:
                del self._entries[key]
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def store(self, key: tuple, inputs: tuple,
              numbers: ClassNumbers) -> int:
        """Keep ``numbers`` under ``key``, tagged with ``inputs``;
        returns how many entries the capacity bound pushed out."""
        evicted = 0
        with self._lock:
            self._entries[key] = (inputs, numbers)
            self._entries.move_to_end(key)
            while len(self._entries) > self.CAPACITY:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        return evicted

    def stats(self) -> dict:
        return {
            "capacity": self.CAPACITY,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class ParametricInnerCoster:
    """Cost/cardinality oracle for one (inner, bound-column set) pair.

    ``stored`` are this coster's class numbers from the restriction
    memo: the oracle then answers from them without planning anything,
    and hands out :class:`DeferredTemplateNode` templates that plan
    their anchor only if the winning plan needs them. ``on_classes``
    receives the numbers after the classes had to be planned here.
    """

    def __init__(self, builder: Builder, plan_fn: PlanFn,
                 domain_distinct: float, num_classes: int = 4,
                 enabled: bool = True, fpr_fn=None,
                 stored: Optional[ClassNumbers] = None,
                 on_classes: Optional[Callable[[ClassNumbers], None]] = None):
        self.builder = builder
        self.plan_fn = plan_fn
        self.domain_distinct = max(1.0, domain_distinct)
        self.num_classes = max(2, num_classes)
        self.enabled = enabled
        # False-positive rate of the lossy filter as a function of the
        # number of keys inserted (0 for exact filter sets).
        self.fpr_fn = fpr_fn or (lambda keys: 0.0)
        self.on_classes = on_classes
        # sorted by anchor_rows (the anchor grid is ascending)
        self.classes: List[EquivalenceClass] = []
        # exact mode (``enabled=False``): the class planned by the last
        # costing call, whose plan is that call's template
        self._last_exact: Optional[EquivalenceClass] = None
        self.nested_optimizations = 0
        # costing calls answered by the oracle; once the classes exist,
        # each call after the first ``num_classes`` anchor plans is a
        # nested optimization *saved* relative to exact costing
        self.estimate_calls = 0
        self._fit: Optional[Tuple[float, float]] = None  # (slope, intercept)
        if stored is not None:
            self._fit, numbers = stored
            self.classes = [
                EquivalenceClass(anchor, cost, rows, CostLedger(*components),
                                 plan_anchor=self._plan_template)
                for anchor, cost, rows, components in numbers
            ]

    @property
    def plans_saved(self) -> int:
        """Nested optimizations avoided vs. exact costing: exact costing
        plans the restricted inner once per estimate call; this coster
        plans it once per anchor."""
        return max(0, self.estimate_calls - self.nested_optimizations)

    # ---------------------------------------------------------------- anchors

    def anchor_cardinalities(self) -> List[float]:
        """Geometric grid of filter-set cardinalities over [1, domain]."""
        top = max(2.0, self.domain_distinct)
        n = self.num_classes
        return [
            round(math.exp(math.log(top) * i / (n - 1)))
            for i in range(n)
        ]

    def _selectivity(self, filter_rows: float) -> float:
        """Inner-restriction selectivity for a filter of this size,
        inflated by the Bloom false-positive rate when lossy."""
        true_sel = min(1.0, filter_rows / self.domain_distinct)
        fpr = max(0.0, min(1.0, self.fpr_fn(filter_rows)))
        return min(1.0, true_sel + fpr * (1.0 - true_sel))

    def _plan_template(self, anchor_rows: float) -> PlanNode:
        restricted = self.builder(anchor_rows, self._selectivity(anchor_rows))
        plan = self.plan_fn(restricted.block)
        self.nested_optimizations += 1
        return plan

    def _plan_anchor(self, anchor_rows: float) -> EquivalenceClass:
        plan = self._plan_template(anchor_rows)
        return EquivalenceClass(anchor_rows, plan.est_cost, plan.est_rows,
                                plan.est_components, _plan=plan)

    def ensure_classes(self) -> None:
        if self.classes:
            return
        for anchor in self.anchor_cardinalities():
            self.classes.append(self._plan_anchor(float(anchor)))
        xs = np.array([c.anchor_rows for c in self.classes])
        ys = np.array([c.rows for c in self.classes])
        if len(xs) >= 2 and float(xs.max() - xs.min()) > 0:
            slope, intercept = np.polyfit(xs, ys, 1)
        else:
            slope, intercept = 0.0, float(ys.mean())
        self._fit = (float(slope), float(intercept))
        if self.on_classes is not None:
            self.on_classes((self._fit, tuple(
                (c.anchor_rows, c.cost, c.rows,
                 tuple(c.components.as_dict().values()))
                for c in self.classes
            )))

    # ---------------------------------------------------------------- oracle

    def estimate(self, filter_rows: float) -> Tuple[float, float]:
        """(cost, output rows) of the restricted inner for a filter set of
        ``filter_rows`` distinct values. O(1) after the classes exist."""
        self.estimate_calls += 1
        filter_rows = max(0.0, filter_rows)
        if not self.enabled:
            cls = self._last_exact = self._plan_anchor(max(1.0, filter_rows))
            return cls.cost, cls.rows
        self.ensure_classes()
        slope, intercept = self._fit
        rows = max(0.0, slope * filter_rows + intercept)
        return self._interpolated_cost(filter_rows), rows

    def _interpolated_cost(self, filter_rows: float) -> float:
        """Cost by linear interpolation between the surrounding classes.

        Section 4.2 allows determining a class's result "by
        extrapolation, for instance" from neighbouring classes; linear
        interpolation between the two bracketing anchors is the natural
        instance, degrading to nearest-class at the grid's edges.
        """
        classes = self.classes
        if filter_rows <= classes[0].anchor_rows:
            return classes[0].cost
        if filter_rows >= classes[-1].anchor_rows:
            return classes[-1].cost
        for low, high in zip(classes, classes[1:]):
            if low.anchor_rows <= filter_rows <= high.anchor_rows:
                span = high.anchor_rows - low.anchor_rows
                if span <= 0:
                    return low.cost
                frac = (filter_rows - low.anchor_rows) / span
                return low.cost + frac * (high.cost - low.cost)
        return classes[-1].cost

    def template_for(self, filter_rows: float) -> PlanNode:
        """The physical plan to execute for this filter-set size."""
        return self.class_for(filter_rows).plan

    def class_for(self, filter_rows: float) -> EquivalenceClass:
        """The class whose plan executes a filter set of this size.

        Uses the *floor* class — the largest anchor not exceeding the
        filter size. A plan optimized for a smaller filter set degrades
        gracefully when fed a larger one (it restricts a bit less
        efficiently), whereas a plan optimized for a large filter (e.g.
        ship-the-whole-inner) executed with a tiny filter forfeits the
        entire restriction benefit.
        """
        if not self.enabled:
            # one nested optimization per costing call: the plan that
            # estimate() just costed at this size is the template
            size = max(1.0, filter_rows)
            cls = self._last_exact
            if cls is None or cls.anchor_rows != size:
                cls = self._last_exact = self._plan_anchor(size)
            return cls
        self.ensure_classes()
        chosen = self.classes[0]
        for cls in self.classes:
            if cls.anchor_rows <= filter_rows:
                chosen = cls
        return chosen
