"""Drift-triggered adaptive maintenance: close the estimate-feedback
loop the drift report opened.

Estimate rot is *measurable*: every query's record carries
per-operator q-errors (:class:`~repro.obs.drift.DriftSample`), and
``db.drift_report()`` folds the records in the query log's ring into a
ranking of the tables whose statistics need attention. This module acts
on that measurement: an :class:`AdaptivePolicy` (carried on
:class:`repro.Options`) reads the report after each query, and
when a table's aggregate q-error crosses the policy threshold the
:class:`AdaptiveController` re-runs ``analyze`` on that table.
Re-analyzing installs a new statistics object, which is all it takes
to shed stale plans — the plan cache and the restriction memo discard
any entry that read the table's old statistics at its next lookup — and
retires the table's samples, so the stale era cannot trigger again on
the new statistics.

Every action is observable three ways:

- a structured ``adaptive_reanalyze`` event on ``db.event_log`` with the
  table, the q-error that triggered it, and the *predicted* q-error
  after re-planning against the fresh statistics;
- ``adaptive_reanalyze_total`` / ``adaptive_skips_total`` counters in
  ``db.metrics()``;
- the bounded :attr:`AdaptiveController.actions` history behind the
  shell's ``\\adaptive`` and the server's admin surface.

The policy is provably inert when disabled: :meth:`observe` returns on
the ``enabled`` flag before touching any registry, log, or catalog
state, so the golden-plan corpus is byte-identical with adaptive mode
off (the default).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

from .trace import describe, q_error


@dataclass(frozen=True)
class AdaptivePolicy:
    """When (and how eagerly) drift triggers an automatic re-analyze.

    - ``enabled``: master switch; a disabled policy makes the whole
      feedback loop a no-op (the built-in default).
    - ``qerror_threshold``: a table whose *mean* q-error over the drift
      window (the last 512 statements) reaches this triggers
      re-analyze. The default 8.0 sits two doublings past "estimates
      are merely imperfect" — routine misestimates stay well under it,
      a stale table blows past it.
    - ``min_samples``: drift samples required for a table before its
      aggregate is trusted (one unlucky operator execution is noise).
    - ``cooldown_queries``: queries to wait after an action
      before considering another — re-analyze is cheap but not free,
      and back-to-back actions on a churning table would thrash.
    """

    enabled: bool = True
    qerror_threshold: float = 8.0
    min_samples: int = 8
    cooldown_queries: int = 16

    def __post_init__(self):
        if self.qerror_threshold < 1.0:
            raise ValueError(
                "qerror_threshold must be >= 1 (q-errors are), got %r"
                % (self.qerror_threshold,)
            )
        if self.min_samples < 1:
            raise ValueError(
                "min_samples must be positive, got %r"
                % (self.min_samples,)
            )
        if self.cooldown_queries < 0:
            raise ValueError(
                "cooldown_queries must be >= 0, got %r"
                % (self.cooldown_queries,)
            )

    @classmethod
    def coerce(cls, value) -> "AdaptivePolicy":
        """``True``/``False`` as shorthand for a default-tuned policy."""
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            return cls(enabled=value)
        raise TypeError(
            "adaptive must be an AdaptivePolicy or a bool, got %r"
            % type(value).__name__
        )

    #: disabled singleton used by the built-in Options defaults
    OFF = None  # type: ignore[assignment]  # filled in below


AdaptivePolicy.OFF = AdaptivePolicy(enabled=False)


class AdaptiveAction:
    """One completed re-analyze, kept for the shell / admin surface."""

    __slots__ = ("table", "before_q", "after_q", "samples", "statement")

    def __init__(self, table: str, before_q: float,
                 after_q: Optional[float], samples: int, statement: str):
        self.table = table
        self.before_q = before_q
        self.after_q = after_q
        self.samples = samples
        self.statement = statement

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return "AdaptiveAction(%s, q %.2f -> %s)" % (
            self.table, self.before_q,
            "%.2f" % self.after_q if self.after_q is not None else "?",
        )


class AdaptiveController:
    """Executes one database's adaptive policy after queries.

    ``observe`` is called by ``Database._observe`` once per query that
    ran a plan, *after* the statement's record (with its drift samples)
    was written. It is deliberately cheap on the common path: a
    disabled policy costs one attribute read, and an enabled-but-quiet
    one costs a cooldown decrement plus one fold of the (bounded)
    record ring.
    """

    #: actions remembered for the shell / admin surface
    HISTORY = 256

    def __init__(self, db):
        self.db = db
        self.actions: deque = deque(maxlen=self.HISTORY)
        self._cooldown_left = 0

    # ------------------------------------------------------------ observe

    def observe(self, policy: Optional[AdaptivePolicy], result) -> None:
        """Consider (and possibly take) maintenance action after one
        query. No-op unless ``policy`` is enabled."""
        if policy is None or not policy.enabled:
            return
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            self._skip("cooldown")
            return
        if self.db.txn.current is not None:
            # never run maintenance DDL from inside a user transaction:
            # analyze would join (and bloat) the open transaction
            self._skip("open_txn")
            return
        offender = self._worst_offender(policy)
        if offender is None:
            return
        self._reanalyze(policy, offender)

    def _skip(self, reason: str) -> None:
        self.db.metrics_registry.inc("adaptive_skips_total",
                                     label=reason)

    def _worst_offender(self, policy: AdaptivePolicy):
        """The worst table whose aggregate drift crosses the policy
        threshold with enough samples, or None."""
        for table in self.db.drift_report().tables:
            if table.samples < policy.min_samples:
                continue
            if table.mean_q_error >= policy.qerror_threshold:
                return table
        return None

    # ------------------------------------------------------------- action

    def _reanalyze(self, policy: AdaptivePolicy, offender) -> None:
        db = self.db
        before_q = offender.mean_q_error
        worst = offender.worst
        # new statistics (entries that read the old ones miss at their
        # next lookup); retires the table's samples
        db.analyze(offender.table)
        after_q = self._replan_q_error(worst, offender.table)
        self._cooldown_left = policy.cooldown_queries
        action = AdaptiveAction(
            table=offender.table,
            before_q=before_q,
            after_q=after_q,
            samples=offender.samples,
            statement=worst.statement if worst else "",
        )
        self.actions.append(action)
        db.metrics_registry.inc("adaptive_reanalyze_total",
                                label=offender.table)
        db.event_log.emit(
            "adaptive_reanalyze",
            table=offender.table,
            before_q=round(before_q, 3),
            after_q=(round(after_q, 3) if after_q is not None else None),
            samples=offender.samples,
        )

    def _replan_q_error(self, worst, table: str) -> Optional[float]:
        """Predicted q-error after re-analyze: re-optimize the worst
        sample's statement against the fresh statistics and compare the
        new estimate for the same operator (falling back to the table's
        scan) with the recorded actual row count. None when the
        statement cannot be re-planned (DDL moved underneath it)."""
        if worst is None or not worst.statement:
            return None
        from ..optimizer.planner import Planner  # avoid an import cycle

        db = self.db
        try:
            block = db.bind(worst.statement)
            # a bare Planner: this probe must not disturb last_planner,
            # planner metrics, or the plan cache
            plan = Planner(db.catalog, db.config).plan(block)
        except Exception:
            return None
        fallback = None
        for label, _node_type, owner, est_rows in describe(plan):
            if est_rows is None:
                continue
            if label == worst.operator:
                return q_error(est_rows, worst.actual_rows)
            if fallback is None and owner == table:
                fallback = q_error(est_rows, worst.actual_rows)
        return fallback

    # ------------------------------------------------------------- report

    def history(self, limit: int = 20) -> List[AdaptiveAction]:
        """The most recent actions, newest first."""
        actions = list(self.actions)
        actions.reverse()
        return actions[:limit]

    def render(self, limit: int = 20) -> str:
        actions = self.history(limit)
        if not actions:
            return "no adaptive actions taken"
        lines = ["%-20s %-10s %-10s %s"
                 % ("table", "before q", "after q", "samples")]
        for action in actions:
            lines.append("%-20s %-10.2f %-10s %d" % (
                action.table, action.before_q,
                "%.2f" % action.after_q
                if action.after_q is not None else "-",
                action.samples,
            ))
        return "\n".join(lines)

