"""``python -m repro top``: a live snapshot of a running repro server.

Four admin requests (``metrics``, ``sessions``, ``slowlog``, ``drift``)
are fetched over one client connection and rendered as a single text
panel — connections, per-kind latency, every session's transaction,
the slowest statements, estimate drift by table, and the adaptive
maintenance counters. :func:`render_top` is a pure function of
the four payloads, so tests exercise the rendering without a server.
"""

from __future__ import annotations

from typing import List, Optional


def _counter_total(metrics: dict, name: str):
    value = metrics.get(name)
    if isinstance(value, dict):
        return value.get("total", 0)
    return value or 0


def _counter_labels(metrics: dict, name: str) -> dict:
    value = metrics.get(name)
    if isinstance(value, dict):
        by_label = value.get("by_label")
        if isinstance(by_label, dict):
            return by_label
    return {}


def _fmt_ms(seconds) -> str:
    if seconds is None:
        return "-"
    return "%.2f" % (seconds * 1e3)


def _header_line(metrics: dict) -> str:
    conns = _counter_total(metrics, "server_connections_total")
    stmts = _counter_total(metrics, "server_statements_total")
    errors = _counter_total(metrics, "server_errors_total")
    slow = _counter_total(metrics, "slow_queries_total")
    return ("connections=%s  statements=%s  errors=%s  slow=%s"
            % (conns, stmts, errors, slow))


def _latency_section(metrics: dict) -> List[str]:
    latency = metrics.get("latency")
    if not latency:
        return ["latency: no statements recorded"]
    lines = ["latency by statement kind:",
             "  %-10s %-8s %-10s %-10s %-10s"
             % ("kind", "count", "mean ms", "p50 ms", "p99 ms")]
    for kind in sorted(latency):
        data = latency[kind]
        lines.append("  %-10s %-8s %-10s %-10s %-10s" % (
            kind, data.get("count", 0), _fmt_ms(data.get("mean")),
            _fmt_ms(data.get("p50")), _fmt_ms(data.get("p99")),
        ))
    return lines


def _sessions_section(sessions: List[dict]) -> List[str]:
    if not sessions:
        return ["sessions: none"]
    lines = ["sessions (%d):" % len(sessions),
             "  %-8s %-6s %s" % ("session", "txn", "stmts")]
    for entry in sessions:
        lines.append("  %-8s %-6s %s" % (
            entry.get("session", "?"), entry.get("txn") or "-",
            entry.get("statements", 0)))
    return lines


def _slowlog_section(slowlog: List[dict], limit: int = 5) -> List[str]:
    if not slowlog:
        return ["slow queries: none recorded"]
    lines = ["slow queries (worst %d of %d):"
             % (min(limit, len(slowlog)), len(slowlog)),
             "  %-10s %-8s %-8s %-6s %s"
             % ("ms", "kind", "rows", "sess", "statement")]
    for entry in slowlog[:limit]:
        lines.append("  %-10.2f %-8s %-8s %-6s %s" % (
            entry.get("seconds", 0.0) * 1e3, entry.get("kind", "?"),
            entry.get("rows", 0), entry.get("session") or "-",
            str(entry.get("statement", ""))[:50],
        ))
    return lines


def _drift_section(drift: dict, limit: int = 5) -> List[str]:
    tables = drift.get("tables") or []
    if not tables:
        return ["drift: no query ran a plan in the window"]
    lines = ["drift by owning table (mean q-error):",
             "  %-16s %-8s %-10s %s"
             % ("table", "samples", "mean q", "max q")]
    for entry in tables[:limit]:
        lines.append("  %-16s %-8s %-10.2f %.2f" % (
            entry.get("table", "?"), entry.get("samples", 0),
            entry.get("mean_q_error", 1.0),
            entry.get("max_q_error", 1.0),
        ))
    return lines


def _adaptive_section(metrics: dict) -> List[str]:
    actions = _counter_labels(metrics, "adaptive_reanalyze_total")
    skips = _counter_labels(metrics, "adaptive_skips_total")
    total = _counter_total(metrics, "adaptive_reanalyze_total")
    if not total and not skips:
        return ["adaptive: no actions"]
    parts = ["adaptive: %s re-analyze action(s)" % total]
    if actions:
        parts.append("by table: " + ", ".join(
            "%s=%s" % (k, actions[k]) for k in sorted(actions)))
    if skips:
        parts.append("skips: " + ", ".join(
            "%s=%s" % (k, skips[k]) for k in sorted(skips)))
    return ["; ".join(parts)]


def render_top(metrics: dict, sessions: List[dict],
               slowlog: List[dict], drift: dict,
               address: Optional[str] = None) -> str:
    """The ``repro top`` panel as one string — pure, testable."""
    title = "repro top"
    if address:
        title += " — %s" % address
    lines = [title, _header_line(metrics), ""]
    lines.extend(_latency_section(metrics))
    lines.append("")
    lines.extend(_sessions_section(sessions))
    lines.append("")
    lines.extend(_slowlog_section(slowlog))
    lines.append("")
    lines.extend(_drift_section(drift))
    lines.append("")
    lines.extend(_adaptive_section(metrics))
    return "\n".join(lines)


def fetch_snapshot(client, address: Optional[str] = None) -> str:
    """Fetch the four admin payloads over one client and render them."""
    metrics = client.metrics()
    sessions = client.sessions()
    slowlog = client.slowlog()
    drift = client.drift()
    return render_top(metrics, sessions, slowlog, drift, address=address)
