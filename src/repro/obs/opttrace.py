"""Optimizer search-space tracing: the DP memo made visible.

An :class:`OptimizerTrace` handed to a
:class:`~repro.optimizer.planner.Planner` is told what the planner
decided, at the point where it decides:

- every candidate :class:`PartialPlan` that reaches the DP memo
  (``Planner._add_entry``) is recorded with its full cost-ledger
  breakdown, and the planner reports its pruning verdict — ``kept``,
  ``dominated-by-cost`` (naming the entry that beat it),
  ``interesting-order-survivor`` (kept despite costing more than the
  unordered best) or ``order-pruned`` (evicted by the 4x rule);
- every Filter Join candidate carries its production-set choice,
  filter-column selection, and Table-1 component estimates, read off
  its :class:`~repro.optimizer.plans.FilterJoinNode`;
- join methods a subset never generated are recorded as *skips* with
  the config flag or structural reason that excluded them;
- each :class:`ParametricInnerCoster` contributes its equivalence-class
  anchors and interpolation fit.

The trace only records — it never changes planner behavior, which the
golden-plan tests assert (plans are byte-identical with tracing on, and
equal to the last float). It reads each candidate's ``plan``, which
builds that candidate's nodes; an untraced planner builds only the
nodes of the plan it returns, and calls no function of this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import PlanError
from ..optimizer.planner import (
    DOMINATED,
    KEPT,
    ORDER_PRUNED,
    ORDER_SURVIVOR,
)
from ..optimizer.plans import FilterJoinNode

#: User-facing spellings accepted by :meth:`OptimizerTrace.why_not`.
#: "magic"-family spellings are context-sensitive (see
#: :data:`_MAGIC_SPELLINGS`): on a recursive query they name the
#: magic-restricted fixpoint candidate; otherwise the Filter Join,
#: which is this paper's magic-sets implementation for flat queries.
METHOD_ALIASES = {
    "filter_join": "filter_join",
    "filterjoin": "filter_join",
    "magic": "filter_join",
    "magic_set": "filter_join",
    "magic_sets": "filter_join",
    "semi_join": "filter_join",
    "semijoin": "filter_join",
    "fixpoint": "fixpoint",
    "full_fixpoint": "fixpoint",
    "recursive": "fixpoint",
    "recursive_magic": "magic",
    "magic_fixpoint": "magic",
    "bloom": "bloom",
    "lossy": "bloom",
    "bloom_filter": "bloom",
    "bloom_filter_join": "bloom",
    "hash": "hash",
    "hash_join": "hash",
    "merge": "merge",
    "merge_join": "merge",
    "sort_merge": "merge",
    "sort_merge_join": "merge",
    "nlj": "nlj",
    "bnl": "nlj",
    "nested_loops": "nlj",
    "block_nested_loops": "nlj",
    "inl": "inl",
    "index_nested_loops": "inl",
    "nested_iteration": "nested_iteration",
    "correlated": "nested_iteration",
    "function_repeated": "function_repeated",
    "function_memo": "function_memo",
    "function_filter": "function_filter",
}

#: Spellings that flip from Filter Join to the recursive magic fixpoint
#: when the traced query actually planned a recursive relation.
_MAGIC_SPELLINGS = ("magic", "magic_set", "magic_sets")


@dataclass
class CandidateRecord:
    """One candidate plan that reached the DP memo."""

    seq: int                              # arrival order
    block: int                            # plan_block ordinal (0 = query)
    depth: int                            # restriction-template depth
    aliases: Tuple[str, ...]              # sorted relation subset
    sequence: Tuple[str, ...]             # construction (join) order
    method: str                           # the candidate's join method
    cost: float
    est_rows: float
    components: Dict[str, float]          # CostLedger.as_dict()
    sort_order: Optional[Tuple[str, ...]]
    site: Optional[str]
    node: object = field(repr=False, compare=False)  # the plan's top node
    verdict: str = KEPT
    dominated_by: Optional[int] = None    # seq of the record that beat it
    chosen: bool = False                  # part of the final plan
    detail: Optional[dict] = None         # filter-join specifics

    @property
    def pruned(self) -> bool:
        return self.verdict in (DOMINATED, ORDER_PRUNED)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "block": self.block,
            "depth": self.depth,
            "aliases": list(self.aliases),
            "sequence": list(self.sequence),
            "method": self.method,
            "cost": self.cost,
            "est_rows": self.est_rows,
            "components": dict(self.components),
            "sort_order": list(self.sort_order) if self.sort_order else None,
            "site": self.site,
            "verdict": self.verdict,
            "dominated_by": self.dominated_by,
            "chosen": self.chosen,
            "detail": self.detail,
        }


@dataclass
class SkipRecord:
    """A join method a subset never generated, and why."""

    block: int
    aliases: Tuple[str, ...]
    outer: Tuple[str, ...]
    inner: str
    method: str
    reason: str

    def as_dict(self) -> dict:
        return {
            "block": self.block,
            "aliases": list(self.aliases),
            "outer": list(self.outer),
            "inner": self.inner,
            "method": self.method,
            "reason": self.reason,
        }


@dataclass
class AnchorRecord:
    """One ParametricInnerCoster: its anchors and interpolation fit."""

    param_id: str
    relation: str
    columns: Tuple[str, ...]
    lossy: bool
    domain_distinct: float
    num_classes: int
    enabled: bool
    anchors: List[Tuple[float, float, float]]  # (|F|, cost, rows)
    fit: Optional[Tuple[float, float]]         # (slope, intercept)
    estimate_calls: int
    nested_optimizations: int
    plans_saved: int

    def as_dict(self) -> dict:
        return {
            "param_id": self.param_id,
            "relation": self.relation,
            "columns": list(self.columns),
            "lossy": self.lossy,
            "domain_distinct": self.domain_distinct,
            "num_classes": self.num_classes,
            "enabled": self.enabled,
            "anchors": [list(a) for a in self.anchors],
            "fit": list(self.fit) if self.fit else None,
            "estimate_calls": self.estimate_calls,
            "nested_optimizations": self.nested_optimizations,
            "plans_saved": self.plans_saved,
        }


@dataclass
class WhyNotReport:
    """Answer to "why didn't the optimizer use method X?"."""

    method: str
    status: str  # "chosen" | "rejected" | "disabled" | "not-generated"
    record: Optional[CandidateRecord] = None
    rival: Optional[CandidateRecord] = None
    delta: float = 0.0
    ledger_delta: Dict[str, float] = field(default_factory=dict)
    reasons: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "status": self.status,
            "record": self.record.as_dict() if self.record else None,
            "rival": self.rival.as_dict() if self.rival else None,
            "delta": self.delta,
            "ledger_delta": dict(self.ledger_delta),
            "reasons": list(self.reasons),
        }

    def render(self) -> str:
        out = []
        if self.status == "chosen":
            rec = self.record
            out.append("why-not %s: it WAS chosen." % self.method)
            out.append("  winning candidate: {%s} via %s, cost %.1f"
                       % (", ".join(rec.aliases), " -> ".join(rec.sequence),
                          rec.cost))
            if self.rival is not None:
                out.append("  beat runner-up %s (cost %.1f, +%.1f)"
                           % (self.rival.method, self.rival.cost,
                              self.rival.cost - rec.cost))
            _append_detail(out, rec, indent="  ")
            return "\n".join(out)
        if self.status == "rejected":
            rec, rival = self.record, self.rival
            out.append("why-not %s: generated but lost on cost." % self.method)
            out.append("  nearest rejected candidate: {%s} via %s"
                       % (", ".join(rec.aliases), " -> ".join(rec.sequence)))
            out.append("    %s cost %.1f vs winning rival %s cost %.1f "
                       "(delta +%.1f)"
                       % (rec.method, rec.cost, rival.method, rival.cost,
                          self.delta))
            out.append("    verdict: %s" % rec.verdict)
            if self.ledger_delta:
                out.append("    ledger delta (%s - %s):"
                           % (rec.method, rival.method))
                for name, value in self.ledger_delta.items():
                    out.append("      %-15s %+.1f" % (name, value))
            _append_detail(out, rec, indent="    ")
            return "\n".join(out)
        if self.status == "disabled":
            out.append("why-not %s: never generated." % self.method)
            for reason in self.reasons:
                out.append("  - %s" % reason)
            return "\n".join(out)
        out.append("why-not %s: no candidate of this method was generated "
                   "for this query." % self.method)
        for reason in self.reasons:
            out.append("  - %s" % reason)
        return "\n".join(out)


def _append_detail(out: List[str], rec: CandidateRecord, indent: str) -> None:
    detail = rec.detail
    if not detail:
        return
    out.append("%sproduction set: {%s} (rows=%.0f)"
               % (indent, ", ".join(detail["production"]),
                  detail["production_rows"]))
    out.append("%sfilter columns: %s (%s, est %.0f distinct)%s"
               % (indent, ", ".join(detail["filter_columns"]),
                  "Bloom filter" if detail["lossy"] else "exact filter set",
                  detail["est_filter_rows"],
                  ", shipped to inner site" if detail["ship_filter"] else ""))
    parts = detail.get("components") or {}
    if parts:
        out.append("%sTable-1 components: %s"
                   % (indent, "  ".join("%s=%.1f" % kv
                                        for kv in parts.items())))


def _filter_join_detail(node: FilterJoinNode) -> dict:
    return {
        "production": list(node.production),
        "production_rows": node.production_rows,
        "filter_columns": ["%s->%s" % pair for pair in node.bind_pairs],
        "lossy": node.lossy,
        "components": dict(node.component_estimates),
        "est_filter_rows": node.est_filter_rows,
        "ship_filter": node.ship_filter,
        "param_id": node.param_id,
    }


class OptimizerTrace:
    """Recorder for one optimization run's search space.

    Create one, pass it to :meth:`Database.plan` (``db.plan(sql,
    search=trace)``), then inspect it via :meth:`render`,
    :meth:`why_not`, :meth:`to_json` or :meth:`to_dot`. An instance is
    single-use: it records exactly one planner's run.
    """

    def __init__(self) -> None:
        self.records: List[CandidateRecord] = []
        self.skips: List[SkipRecord] = []
        self.anchors: List[AnchorRecord] = []
        self.metrics = None              # PlannerMetrics, set by finalize()
        self.final_plan = None
        self._config = None              # the planner's, set by begin()
        # latest record per plan node (each record holds its node, so
        # an id here always names a live node)
        self._by_node: Dict[int, CandidateRecord] = {}
        self._skip_seen = set()
        self._block_stack: List[int] = []
        self._block_counter = 0

    # ------------------------------------------ what the planner reports

    def begin(self, config) -> None:
        """A planner running under ``config`` starts recording here."""
        if self._config is not None:
            raise PlanError("an OptimizerTrace records one planner run; "
                            "this one already has")
        self._config = config

    def enter_block(self) -> None:
        self._block_stack.append(self._block_counter)
        self._block_counter += 1

    def exit_block(self) -> None:
        self._block_stack.pop()

    def _current_block(self) -> int:
        return self._block_stack[-1] if self._block_stack else 0

    def candidate(self, partial, depth: int) -> None:
        """``partial`` reached the DP memo at restriction depth ``depth``."""
        node = partial.plan
        rec = CandidateRecord(
            seq=len(self.records),
            block=self._current_block(),
            depth=depth,
            aliases=tuple(sorted(partial.aliases)),
            sequence=tuple(partial.sequence),
            method=partial.method,
            cost=partial.cost,
            est_rows=partial.props.rows,
            components=partial.components.as_dict(),
            sort_order=partial.sort_order,
            site=partial.site,
            node=node,
            detail=(_filter_join_detail(node)
                    if isinstance(node, FilterJoinNode) else None),
        )
        self.records.append(rec)
        self._by_node[id(node)] = rec

    def verdict(self, partial, verdict: str, by=None) -> None:
        """The planner's verdict on a recorded entry; ``by`` is the
        entry that dominated it. A pruned record keeps its verdict."""
        rec = self._by_node[id(partial.plan)]
        if rec.pruned:
            return
        rec.verdict = verdict
        rec.dominated_by = (None if by is None
                            else self._by_node[id(by.plan)].seq)

    def _skip(self, aliases, outer, inner, method, reason) -> None:
        key = (self._current_block(), aliases, inner, method)
        if key in self._skip_seen:
            return
        self._skip_seen.add(key)
        self.skips.append(SkipRecord(
            block=self._current_block(), aliases=aliases, outer=outer,
            inner=inner, method=method, reason=reason,
        ))

    def skipped_fixpoints(self, rel, produced) -> None:
        """Why one side of the magic/fixpoint costed pair is absent.

        Reported at access-path generation (not join wrapping) so that
        single-relation recursive queries are covered too.
        """
        cfg = self._config
        made = {c.method for c in produced}
        subset = (rel.alias,)
        if "magic" not in made:
            if cfg.forced_recursive == "full":
                reason = "excluded by forced_recursive='full'"
            else:
                reason = ("no pushable literal binding on a magic-safe "
                          "column of %s" % rel.alias)
            self._skip(subset, (), rel.alias, "magic", reason)
        if "fixpoint" not in made and cfg.forced_recursive == "magic":
            self._skip(subset, (), rel.alias, "fixpoint",
                       "excluded by forced_recursive='magic'")

    def skipped_joins(self, partial, rel, produced) -> None:
        """Why a join method produced no candidate for ``partial``
        joined with ``rel``: a config flag, a forced strategy, or the
        query's structure."""
        cfg = self._config
        subset = tuple(sorted(partial.aliases | {rel.alias}))
        made = {c.method for c in produced}

        def skip(method, reason):
            self._skip(subset, tuple(partial.sequence), rel.alias, method,
                       reason)

        forced = cfg.forced_view_join if rel.kind == "view" else None
        forced_stored = (cfg.forced_stored_join if rel.kind == "stored"
                         else None)

        def absent(method, flag_name, forced_ok, structural):
            if method in made:
                return
            if forced is not None and forced not in forced_ok:
                skip(method, "excluded by forced_view_join=%r" % forced)
            elif forced_stored is not None and forced_stored not in forced_ok:
                skip(method,
                     "excluded by forced_stored_join=%r" % forced_stored)
            elif flag_name and not getattr(cfg, flag_name):
                skip(method, "disabled by config (%s=False)" % flag_name)
            else:
                skip(method, structural)

        if rel.kind in ("stored", "view", "filterset", "recursive"):
            classic_ok = ("full", "hash", "merge", "nlj")
            absent("hash", "enable_hash_join", classic_ok,
                   "no equi-join predicate with the outer")
            absent("merge", "enable_merge_join", classic_ok,
                   "no equi-join predicate with the outer")
            absent("nlj", "enable_nested_loops", classic_ok,
                   "not generated for this input")
        if rel.kind == "stored":
            absent("inl", "enable_index_nested_loops", ("inl",),
                   "no index on a join column of %s" % rel.alias)
        if rel.kind == "view":
            absent("nested_iteration", "enable_nested_iteration",
                   ("nested_iteration",),
                   "view %s exposes no bindable columns" % rel.alias)
        if rel.kind in ("stored", "view"):
            absent("filter_join", "enable_filter_join",
                   ("filter_join",),
                   "no bindable join columns on %s" % rel.alias)
            if "bloom" not in made:
                if not cfg.enable_filter_join and forced is None \
                        and forced_stored is None:
                    skip("bloom",
                         "disabled by config (enable_filter_join=False)")
                elif not cfg.enable_bloom_filter \
                        and forced not in ("bloom",) \
                        and forced_stored not in ("bloom",):
                    skip("bloom",
                         "disabled by config (enable_bloom_filter=False)")
                else:
                    absent("bloom", None, ("bloom",),
                           "no bindable join columns on %s" % rel.alias)
        if rel.kind == "function" and "function_filter" not in made \
                and not cfg.enable_filter_join:
            skip("function_filter",
                 "disabled by config (enable_filter_join=False)")

    # ---------------------------------------------------------- finalize

    def finalize(self, plan, metrics, costers) -> None:
        """Mark the records making up the final plan and snapshot the
        planner's metrics and parametric costers."""
        self.final_plan = plan
        chosen_ids = set()
        stack = [plan]
        while stack:
            node = stack.pop()
            chosen_ids.add(id(node))
            stack.extend(node.children())
        for rec in self.records:
            if id(rec.node) in chosen_ids and not rec.pruned:
                rec.chosen = True
        self.metrics = metrics
        self.anchors = [AnchorRecord(
            param_id=coster.param_id,
            relation=coster.relation,
            columns=coster.columns,
            lossy=coster.lossy,
            domain_distinct=coster.domain_distinct,
            num_classes=coster.num_classes,
            enabled=coster.enabled,
            anchors=[(c.anchor_rows, c.cost, c.rows) for c in coster.classes],
            fit=coster._fit,
            estimate_calls=coster.estimate_calls,
            nested_optimizations=coster.nested_optimizations,
            plans_saved=coster.plans_saved,
        ) for coster in costers]

    # ------------------------------------------------------------ why-not

    def why_not(self, method: str) -> WhyNotReport:
        """Why the named join method is not (or is) in the final plan."""
        key = method.strip().lower().replace(" ", "_").replace("-", "_")
        canon = METHOD_ALIASES.get(key)
        if key in _MAGIC_SPELLINGS and (
                any(r.method in ("magic", "fixpoint") for r in self.records)
                or any(s.method == "magic" for s in self.skips)):
            canon = "magic"
        if canon is None:
            raise PlanError(
                "unknown join method %r; try one of: %s"
                % (method, ", ".join(sorted(set(METHOD_ALIASES.values()))))
            )
        records = [r for r in self.records if r.block == 0 and r.depth == 0]
        mine = [r for r in records if r.method == canon]
        chosen = [r for r in mine if r.chosen]
        if chosen:
            best = max(chosen, key=lambda r: len(r.aliases))
            rival = self._runner_up(records, best)
            return WhyNotReport(method=canon, status="chosen", record=best,
                                rival=rival)
        if mine:
            nearest = None
            for rec in mine:
                rival = self._winner_for(records, rec)
                if rival is None:
                    continue
                delta = rec.cost - rival.cost
                if nearest is None or delta < nearest[2]:
                    nearest = (rec, rival, delta)
            if nearest is not None:
                rec, rival, delta = nearest
                ledger_delta = {
                    name: rec.components.get(name, 0.0)
                          - rival.components.get(name, 0.0)
                    for name in rec.components
                    if abs(rec.components.get(name, 0.0)
                           - rival.components.get(name, 0.0)) > 1e-9
                }
                return WhyNotReport(method=canon, status="rejected",
                                    record=rec, rival=rival, delta=delta,
                                    ledger_delta=ledger_delta)
        reasons = sorted({
            "{%s}: %s" % (", ".join(s.aliases), s.reason)
            for s in self.skips if s.method == canon and s.block == 0
        })
        status = "disabled" if reasons else "not-generated"
        return WhyNotReport(method=canon, status=status, reasons=reasons)

    def _winner_for(self, records, rec) -> Optional[CandidateRecord]:
        """The surviving entry that beat ``rec`` at its subset."""
        peers = [r for r in records
                 if r.aliases == rec.aliases and r.seq != rec.seq]
        chosen = [r for r in peers if r.chosen]
        if chosen:
            return min(chosen, key=lambda r: r.cost)
        kept = [r for r in peers if not r.pruned]
        pool = kept or peers
        return min(pool, key=lambda r: r.cost) if pool else None

    def _runner_up(self, records, winner) -> Optional[CandidateRecord]:
        peers = [r for r in records
                 if r.aliases == winner.aliases and r.seq != winner.seq]
        return min(peers, key=lambda r: r.cost) if peers else None

    # ---------------------------------------------------------- rendering

    def render(self, block: int = 0, max_per_subset: int = 8) -> str:
        """The DP lattice, level by level, with cost deltas."""
        records = [r for r in self.records if r.block == block]
        out = ["== optimizer search trace (block %d) ==" % block]
        if self.metrics is not None:
            out.append(
                "candidates considered: %d   memo entries: %d   "
                "nested optimizations: %d"
                % (self.metrics.plans_considered, self.metrics.dp_entries,
                   self.metrics.nested_optimizations))
            by_method = self.metrics.candidates_by_method
            if by_method:
                pruned = self.metrics.pruned_by_method
                out.append("by method: " + "  ".join(
                    "%s %d (pruned %d)" % (m, n, pruned.get(m, 0))
                    for m, n in sorted(by_method.items())))
        if not records:
            out.append("(no DP activity recorded for this block)")
            return "\n".join(out)

        subsets: Dict[Tuple[str, ...], List[CandidateRecord]] = {}
        for rec in records:
            subsets.setdefault(rec.aliases, []).append(rec)
        levels: Dict[int, List[Tuple[str, ...]]] = {}
        for aliases in subsets:
            levels.setdefault(len(aliases), []).append(aliases)

        for size in sorted(levels):
            out.append("")
            out.append("level %d%s" % (size,
                                       " - access paths" if size == 1 else ""))
            for aliases in sorted(levels[size]):
                out.append("  {%s}" % ", ".join(aliases))
                bucket = sorted(subsets[aliases],
                                key=lambda r: (not r.chosen, r.cost))
                best = bucket[0]
                shown = bucket[:max_per_subset]
                for rec in shown:
                    delta = rec.cost - best.cost
                    tags = [rec.verdict]
                    if rec.chosen:
                        tags.insert(0, "chosen")
                    if rec.sort_order:
                        tags.append("order: %s" % ",".join(rec.sort_order))
                    if rec.site:
                        tags.append("site %s" % rec.site)
                    marker = "*" if rec.chosen else " "
                    line = "  %s %-17s cost %10.1f" % (marker, rec.method,
                                                       rec.cost)
                    if rec is not best and delta > 0:
                        line += "  (+%.1f)" % delta
                    line += "  via %s" % " -> ".join(rec.sequence)
                    line += "  [%s]" % ", ".join(tags)
                    out.append("  " + line)
                    if rec.method in ("filter_join", "bloom") \
                            and rec is not best:
                        ledger_delta = [
                            "%s %+.1f" % (name,
                                          rec.components.get(name, 0.0)
                                          - best.components.get(name, 0.0))
                            for name in rec.components
                            if abs(rec.components.get(name, 0.0)
                                   - best.components.get(name, 0.0)) > 1e-9
                        ]
                        if ledger_delta:
                            out.append("        ledger delta vs %s: %s"
                                       % (best.method,
                                          ", ".join(ledger_delta)))
                    if rec.detail:
                        _append_detail(out, rec, indent="        ")
                if len(bucket) > len(shown):
                    out.append("      ... %d more candidates"
                               % (len(bucket) - len(shown)))

        if self.anchors and block == 0:
            out.append("")
            out.append("parametric costers")
            for a in self.anchors:
                out.append(
                    "  %s on %s(%s)%s: domain=%.0f, %d classes, "
                    "%d estimate calls (%d nested optimizations saved)"
                    % (a.param_id, a.relation, ", ".join(a.columns),
                       " [bloom]" if a.lossy else "",
                       a.domain_distinct, a.num_classes,
                       a.estimate_calls, a.plans_saved))
                if a.anchors:
                    out.append("    anchors (|F| -> cost, rows): %s"
                               % "; ".join("%.0f -> %.1f, %.1f" % anchor
                                           for anchor in a.anchors))
                if a.fit is not None:
                    out.append("    cardinality fit: rows ~= %.3f*|F| + %.2f"
                               % a.fit)

        block_skips = [s for s in self.skips if s.block == block]
        if block_skips:
            out.append("")
            out.append("join methods skipped (why-not candidates)")
            for s in block_skips:
                out.append("  {%s} inner %s: %s - %s"
                           % (", ".join(s.aliases), s.inner, s.method,
                              s.reason))
        return "\n".join(out)

    # ------------------------------------------------------------ exports

    def to_json(self) -> dict:
        metrics = {}
        if self.metrics is not None:
            metrics = {
                "plans_considered": self.metrics.plans_considered,
                "joins_enumerated": self.metrics.joins_enumerated,
                "filter_joins_considered":
                    self.metrics.filter_joins_considered,
                "nested_optimizations": self.metrics.nested_optimizations,
                "dp_entries": self.metrics.dp_entries,
                "candidates_by_method":
                    dict(self.metrics.candidates_by_method),
                "pruned_by_method": dict(self.metrics.pruned_by_method),
            }
        return {
            "format": "repro-search-trace/v1",
            "metrics": metrics,
            "records": [r.as_dict() for r in self.records],
            "skips": [s.as_dict() for s in self.skips],
            "parametric": [a.as_dict() for a in self.anchors],
        }

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def to_dot(self, block: int = 0) -> str:
        """Graphviz rendering of the search graph: relation subsets as
        nodes, candidate joins as edges (solid = kept, dashed = pruned,
        bold = chosen; filter joins in blue)."""
        records = [r for r in self.records if r.block == block]
        subsets: Dict[Tuple[str, ...], List[CandidateRecord]] = {}
        for rec in records:
            subsets.setdefault(rec.aliases, []).append(rec)
        out = [
            "digraph search {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="Helvetica"];',
        ]

        def node_key(aliases: Tuple[str, ...]) -> str:
            return "_".join(aliases).replace('"', "") or "empty"

        for aliases, bucket in sorted(subsets.items()):
            best = min(bucket, key=lambda r: (not r.chosen, r.cost))
            style = ', style=filled, fillcolor="#e8f0fe"' \
                if any(r.chosen for r in bucket) else ""
            out.append('  "%s" [label="{%s}\\nbest %s %.1f"%s];'
                       % (node_key(aliases), ", ".join(aliases),
                          best.method, best.cost, style))
        for rec in records:
            if len(rec.sequence) < 2:
                continue
            parent = tuple(sorted(rec.sequence[:-1]))
            attrs = ['label="%s %.1f"' % (rec.method, rec.cost)]
            if rec.chosen:
                attrs.append("style=bold")
                attrs.append("penwidth=2.0")
                attrs.append('color="#1a73e8"' if rec.method in
                             ("filter_join", "bloom") else 'color="#188038"')
            elif rec.pruned:
                attrs.append("style=dashed")
                attrs.append('color="#80868b"')
            elif rec.method in ("filter_join", "bloom"):
                attrs.append('color="#1a73e8"')
            out.append('  "%s" -> "%s" [%s];'
                       % (node_key(parent), node_key(rec.aliases),
                          ", ".join(attrs)))
        out.append("}")
        return "\n".join(out)
