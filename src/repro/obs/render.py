"""Rendering an execution as EXPLAIN ANALYZE text.

One code path serves both ``Database.explain_analyze`` and the shell's
``\\ea`` meta-command: the annotated plan tree is produced from the same
span tree that rides on ``QueryResult.trace``, not from a separate
ad-hoc tracer pass.

The cost summary reports the **measured/est q-error** explicitly (the
old rendering printed ``est/measured`` under the ambiguous label
``ratio`` and silently divided zero into ``nan``); a measured cost of
zero gets its own branch instead of a NaN.
"""

from __future__ import annotations

from .trace import QueryTrace


def cost_ratio_text(est_cost: float, measured: float) -> str:
    """The parenthetical after ``estimated cost ... measured cost ...``.

    Reports the measured/est ratio and its q-error, with explicit
    branches for measured == 0 and est == 0 rather than a silent NaN.
    """
    if measured == 0:
        return "measured cost is zero; measured/est undefined"
    if est_cost <= 0:
        return "estimated cost is zero; measured/est undefined"
    ratio = measured / est_cost
    return "measured/est %.2f, q-error %.2f" % (ratio, max(ratio, 1.0 / ratio))


def _actual_text(span) -> str:
    if span is None or not span.executions:
        return "never executed"
    text = "actual rows=%d" % span.actual_rows
    if span.executions > 1:
        text += " over %d runs" % span.executions
    q = span.q_error
    if q is not None and q >= 1.5:
        text += " (q-err %.1f)" % q
    # say so when part of this operator's batch-wise work fell off its numpy kernels onto the per-element path
    fallback = span.extras.get("fallback_batches")
    if fallback:
        text += " (%d of %d batches interpreted)" % (
            fallback, fallback + span.extras.get("kernel_batches", 0))
    return text


def render_plan_with_spans(plan, trace: QueryTrace) -> str:
    """The plan tree with each node annotated from its span."""

    def render(node, indent=0):
        span = trace.span_for(node)
        line = "%s%s  [est rows=%.0f | %s | cost=%.1f]" % (
            "  " * indent, node.label(), node.est_rows,
            _actual_text(span), node.est_cost,
        )
        parts = [line]
        for child in node.children():
            parts.append(render(child, indent + 1))
        return "\n".join(parts)

    return render(plan)


def render_explain_analyze(result, cost_params=None) -> str:
    """EXPLAIN ANALYZE text for a :class:`QueryResult` that ran a plan."""
    trace = result.trace
    plan = result.plan
    if trace is None or plan is None:
        raise ValueError(
            "render_explain_analyze needs the result of a query that "
            "ran a plan")
    measured = result.ledger.total(cost_params)
    lines = [
        render_plan_with_spans(plan, trace),
        "",
        "actual rows: %d" % len(result.rows),
        "estimated cost: %.1f   measured cost: %.1f   (%s)"
        % (plan.est_cost, measured,
           cost_ratio_text(plan.est_cost, measured)),
        "measured: %s" % result.ledger,
        "worst operator q-error: %.2f" % trace.max_q_error,
    ]
    phases = trace.phases
    phase_bits = [
        "%s %.2fms" % (name, span.wall_seconds * 1e3)
        for name, span in phases.items()
    ]
    if phase_bits:
        lines.append("phases: " + "  ".join(phase_bits))
    if result.metrics is not None:
        lines.append(
            "optimizer: %d plans considered, %d filter joins costed, "
            "%d nested optimizations"
            % (result.metrics.plans_considered,
               result.metrics.filter_joins_considered,
               result.metrics.nested_optimizations)
        )
    return "\n".join(lines)
