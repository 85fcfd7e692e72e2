"""Execution options: one value object for every per-call knob.

The :class:`Options` dataclass holds every per-call execution knob in
one immutable value that can be passed per call
(``db.sql(q, options=...)``), installed as database defaults
(``db.configure(...)``), or scoped to a block (``with db.session(...)``).

Each field defaults to ``None``, meaning *inherit* — from the database
defaults, and ultimately from :data:`BUILTIN`. ``Options.merged`` layers
one options value over another, so resolution is simply::

    BUILTIN <- db.defaults <- per-call options
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from .obs.adaptive import AdaptivePolicy

#: valid durability levels for the write-ahead log (see
#: docs/transactions.md): "off" = no WAL at all, "lazy" = append commit
#: records without forcing them to stable storage, "commit" = fsync at
#: every commit record
DURABILITY_LEVELS = ("off", "lazy", "commit")

#: valid isolation levels (see docs/transactions.md): "snapshot" =
#: reads pinned to the BEGIN snapshot for the whole transaction,
#: "read-committed" = a fresh snapshot per statement. Both detect
#: write-write conflicts first-committer-wins.
ISOLATION_LEVELS = ("snapshot", "read-committed")


@dataclass(frozen=True)
class Options:
    """Per-execution knobs for one statement (or a database's defaults).

    ``None`` anywhere means "inherit from the next layer down"; use
    :meth:`merged` to layer values and :meth:`resolved` to collapse onto
    the built-in defaults.

    - ``timeout``: per-statement deadline in seconds
      (:class:`~repro.errors.QueryTimeout` when exceeded).
    - ``use_cache``: serve queries from the plan cache (on by
      default; a one-shot text is stored on its second miss).
      ``False`` opts one call out; ``db.plan_cache.resize(0)`` turns
      the cache off for the database.
    - ``memory_budget_bytes``: cap on operator working memory
      (:class:`~repro.errors.ResourceExhausted` when exceeded).
    - ``max_fixpoint_iterations``: cap on semi-naive fixpoint passes for
      recursive queries
      (:class:`~repro.errors.FixpointLimitExceeded` when exceeded —
      the guard against ``UNION ALL`` recursion over cyclic data).
    - ``durability``: write-ahead-log level — ``"off"`` (no WAL; the
      built-in default), ``"lazy"`` (commits append to the WAL but are
      not forced to stable storage), or ``"commit"`` (every commit is
      fsynced before COMMIT returns). See docs/transactions.md.
    - ``wal_path``: filesystem path for the WAL when durability is on;
      ``None`` keeps the log in memory (useful for tests and crash
      simulation). Only meaningful as a database default — the WAL is
      opened once, on the first logged commit.
    - ``isolation``: MVCC isolation level for explicit transactions —
      ``"snapshot"`` (the built-in default: reads pinned to the BEGIN
      snapshot) or ``"read-committed"`` (a fresh snapshot per
      statement). Sampled at BEGIN; see docs/transactions.md.
    - ``adaptive``: an :class:`~repro.obs.adaptive.AdaptivePolicy` (or
      ``True``/``False`` shorthand for a default-tuned / disabled one)
      letting queries trigger automatic re-analyze when
      estimate drift crosses the policy threshold. Off by default;
      see docs/observability.md ("Closing the loop").
    - ``slow_query_seconds``: a statement at least this slow (default
      0.25 s) is a slow-query record: its entry in the database's
      :class:`~repro.obs.querylog.QueryLog` — which records every
      statement, there is no switch — additionally captures the full
      plan text and the span trace.

    The optimizer's search trace is not an execution knob: it is asked
    of the planner with ``db.plan(sql, search=OptimizerTrace())``,
    ``db.explain(sql, mode="search")`` or ``db.why_not(sql, method)``.
    Neither is tracing: every query keeps its operators' actuals, read
    through ``QueryResult.trace``.
    """

    timeout: Optional[float] = None
    use_cache: Optional[bool] = None
    memory_budget_bytes: Optional[float] = None
    max_fixpoint_iterations: Optional[int] = None
    durability: Optional[str] = None
    wal_path: Optional[str] = None
    isolation: Optional[str] = None
    adaptive: Optional[Union[AdaptivePolicy, bool]] = None
    slow_query_seconds: Optional[float] = None

    def __post_init__(self):
        if self.adaptive is not None and not isinstance(
                self.adaptive, AdaptivePolicy):
            # bool shorthand normalizes at construction so merged()/
            # resolved() always see a policy object
            object.__setattr__(
                self, "adaptive", AdaptivePolicy.coerce(self.adaptive))
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                "timeout must be positive, got %r" % (self.timeout,)
            )
        if (self.memory_budget_bytes is not None
                and self.memory_budget_bytes <= 0):
            raise ValueError(
                "memory_budget_bytes must be positive, got %r"
                % (self.memory_budget_bytes,)
            )
        if (self.max_fixpoint_iterations is not None
                and self.max_fixpoint_iterations <= 0):
            raise ValueError(
                "max_fixpoint_iterations must be positive, got %r"
                % (self.max_fixpoint_iterations,)
            )
        if (self.durability is not None
                and self.durability not in DURABILITY_LEVELS):
            raise ValueError(
                "unknown durability %r (expected one of %s)"
                % (self.durability, ", ".join(DURABILITY_LEVELS))
            )
        if (self.isolation is not None
                and self.isolation not in ISOLATION_LEVELS):
            raise ValueError(
                "unknown isolation %r (expected one of %s)"
                % (self.isolation, ", ".join(ISOLATION_LEVELS))
            )
        if (self.slow_query_seconds is not None
                and self.slow_query_seconds <= 0):
            raise ValueError(
                "slow_query_seconds must be positive, got %r"
                % (self.slow_query_seconds,)
            )

    def merged(self, over: Optional["Options"]) -> "Options":
        """This options value with ``over``'s non-None fields taking
        precedence (``over`` wins)."""
        if over is None:
            return self
        updates = {
            field.name: value
            for field in dataclasses.fields(over)
            if (value := getattr(over, field.name)) is not None
        }
        return self.replace(**updates) if updates else self

    def replace(self, **updates) -> "Options":
        """A copy with ``updates`` applied (field names validated)."""
        return dataclasses.replace(self, **updates)

    def resolved(self) -> "Options":
        """Collapse onto the built-in defaults: no field is None except
        ``timeout`` / ``memory_budget_bytes`` (whose default is
        genuinely "unlimited") and ``wal_path`` (whose default is an
        in-memory log)."""
        return BUILTIN.merged(self)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


#: the bottom of the resolution chain: what you get with no configure()
#: and no per-call options
BUILTIN = Options(use_cache=True, max_fixpoint_iterations=1000,
                  durability="off", isolation="snapshot",
                  adaptive=AdaptivePolicy.OFF, slow_query_seconds=0.25)

OPTION_FIELDS = tuple(f.name for f in dataclasses.fields(Options))
