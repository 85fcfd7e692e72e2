"""Optimizer configuration: the paper's limitations and knobs as switches.

The defaults correspond to the paper's recommended setup: Filter Joins
enabled, Limitations 1–3 applied, and the Section 4.2 parametric
approximation with a small number of equivalence classes. Experiments
C2/C3 flip individual switches to measure what each one buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from ..ledger import CostParams


@dataclass(frozen=True)
class OptimizerConfig:
    """All optimizer knobs in one place; frozen, so a changed knob is a
    new config (:meth:`replace`)."""

    # --- join methods considered -----------------------------------------
    enable_hash_join: bool = True
    enable_merge_join: bool = True
    enable_nested_loops: bool = True
    enable_index_nested_loops: bool = True
    enable_nested_iteration: bool = True   # correlated probing of views
    enable_filter_join: bool = True        # the paper's contribution
    enable_bloom_filter: bool = True       # lossy filter sets

    # Force a specific strategy for joining *view* inners (experiments):
    # None (cost-based choice), "full" (full computation + classic join),
    # "nested_iteration", "filter_join" (exact), or "bloom" (lossy).
    forced_view_join: str = None
    # Force a specific method for *stored* inners (experiments): None,
    # "hash", "merge", "nlj", "inl", "filter_join", or "bloom".
    forced_stored_join: str = None
    # Force the UDF join mode (experiments): None, "repeated", "memo",
    # or "filter".
    forced_function_join: str = None
    # Force the recursive-relation strategy (experiments): None (cost-based
    # choice between the full fixpoint and the magic-restricted fixpoint),
    # "full", or "magic" (falls back to full when no binding is pushable).
    forced_recursive: str = None

    # --- the paper's search-space limitations -----------------------------
    # Limitation 1: production sets must be prefixes of the outer subplan.
    limitation1_prefix_production: bool = True
    # Limitation 2: the production set is exactly the full outer relation.
    limitation2_full_outer: bool = True
    # Limitation 3: filter-set variants per join. "all" uses every equi-join
    # column; "all_and_singles" additionally tries each column alone
    # (a small constant number, as the paper requires).
    filter_column_strategy: str = "all_and_singles"

    # --- Section 4.2 parametric approximation ------------------------------
    # The "performance knob": how many equivalence classes (anchor filter-set
    # cardinalities) are planned per (view, binding) pair.
    parametric_classes: int = 4
    # Disable to re-optimize the restricted inner exactly at every costing
    # (the expensive alternative the approximation replaces).
    enable_parametric: bool = True

    # --- environment --------------------------------------------------------
    memory_pages: int = 128          # pages of working memory per operator
    message_payload_bytes: int = 8192
    bloom_bits: int = 64 * 1024      # fixed Bloom filter size (bits)
    cost_params: CostParams = field(default_factory=CostParams)
    # Per-query byte budget for operator working memory (hash tables,
    # sorts, materialized temps, filter sets). None = unlimited; when
    # set, a query that would exceed it fails with ResourceExhausted
    # instead of growing unboundedly.
    memory_budget_bytes: int = None

    def replace(self, **changes) -> "OptimizerConfig":
        """A copy with the given fields changed."""
        return replace(self, **changes)

    @cached_property
    def fingerprint(self) -> str:
        """Every knob rendered (cost weights included), the plan cache's
        and restriction memo's key part; once per object, as it is frozen."""
        return repr(self)

    def validate(self) -> None:
        if self.parametric_classes < 2:
            raise ValueError("parametric_classes must be >= 2 (line fit)")
        if self.memory_budget_bytes is not None \
                and self.memory_budget_bytes <= 0:
            raise ValueError(
                "memory_budget_bytes must be positive (or None for "
                "unlimited)"
            )
        if self.filter_column_strategy not in ("all", "all_and_singles"):
            raise ValueError(
                "filter_column_strategy must be 'all' or 'all_and_singles'"
            )
        if self.memory_pages < 3:
            raise ValueError("memory_pages must be at least 3")
        if self.forced_view_join not in (
            None, "full", "nested_iteration", "filter_join", "bloom",
        ):
            raise ValueError(
                "forced_view_join must be None, 'full', 'nested_iteration',"
                " 'filter_join', or 'bloom'"
            )
        if self.forced_stored_join not in (
            None, "hash", "merge", "nlj", "inl", "filter_join", "bloom",
        ):
            raise ValueError(
                "forced_stored_join must be None or one of hash/merge/nlj/"
                "inl/filter_join/bloom"
            )
        if self.forced_function_join not in (
            None, "repeated", "memo", "filter",
        ):
            raise ValueError(
                "forced_function_join must be None, 'repeated', 'memo', "
                "or 'filter'"
            )
        if self.forced_recursive not in (None, "full", "magic"):
            raise ValueError(
                "forced_recursive must be None, 'full', or 'magic'"
            )
