"""Per-database metrics: counters, gauges, and histograms.

Every :class:`~repro.database.Database` owns one :class:`MetricsRegistry`
for the counters nothing else keeps: planner work, DML access paths,
transactions, the server, the adaptive loop, per-query q-errors and
rows per operator class. There is no process-wide parent registry.
Counters another object already owns are not copied in here:
``db.metrics()`` reads ``queries_total`` / ``slow_queries_total`` from
the query log and ``plan_cache_events_total`` from the plan cache, in
the same shape (:func:`labelled_counter`).

Instruments are deliberately primitive — plain dict bumps, no
timestamps, one flat lock per registry so concurrent sessions never
lose an update — so always-on recording costs well under a microsecond
a bump; there is no switch, and ``bench/run.py`` measures every
workload with the registry recording. See ``docs/observability.md`` for
the catalog.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

#: default histogram buckets for q-error-like ratios (>= 1, long tail)
QERROR_BUCKETS = (1.1, 1.25, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0)

#: default buckets for row counts per operator
ROWS_BUCKETS = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)


class Counter:
    """A monotonically increasing sum, optionally split by label."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.values: Dict[str, float] = {}

    def inc(self, amount: float = 1.0, label: str = "") -> None:
        self.values[label] = self.values.get(label, 0.0) + amount

    @property
    def total(self) -> float:
        return sum(self.values.values())

    def as_dict(self) -> dict:
        if set(self.values) == {""}:
            return {"total": self.values[""]}
        return {"total": self.total, "by_label": dict(sorted(self.values.items()))}


class Gauge:
    """A value that goes up and down (e.g. plan-cache entries)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max.

    ``bounds`` are upper bucket edges; observations above the last bound
    land in the implicit +inf bucket.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 bounds: Sequence[float] = QERROR_BUCKETS):
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-upper-bound estimate of the ``q`` quantile."""
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def as_dict(self) -> dict:
        data = {
            "count": self.count, "sum": self.sum,
            "min": self.min, "max": self.max, "mean": self.mean,
        }
        if self.count:
            data["buckets"] = {
                ("le_%g" % bound): n
                for bound, n in zip(self.bounds, self.bucket_counts)
                if n
            }
            if self.bucket_counts[-1]:
                data["buckets"]["inf"] = self.bucket_counts[-1]
        return data


def labelled_counter(values: Dict[str, float]) -> dict:
    """The :meth:`MetricsRegistry.as_dict` entry of a counter split by
    label, for counts whose owner is not the registry."""
    return {"kind": "counter", "total": sum(values.values()),
            "by_label": dict(sorted(values.items()))}


class MetricsRegistry:
    """A named collection of instruments.

    ``counter``/``gauge``/``histogram`` get-or-create an instrument;
    the recording helpers (:meth:`inc`, :meth:`set_gauge`,
    :meth:`observe`) bump it under the registry's lock.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._instruments: Dict[str, object] = {}
        # read-modify-write bumps are not atomic under concurrent
        # sessions
        self._lock = threading.Lock()

    # -------------------------------------------------------- instruments

    def _get(self, cls, name: str, help: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                "metric %r already registered as %s, not %s"
                % (name, instrument.kind, cls.kind)
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  bounds: Sequence[float] = QERROR_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, bounds=bounds)

    # ---------------------------------------------------------- recording

    def inc(self, name: str, amount: float = 1.0, label: str = "",
            help: str = "") -> None:
        with self._lock:
            self.counter(name, help).inc(amount, label)

    def set_gauge(self, name: str, value: float, help: str = "") -> None:
        with self._lock:
            self.gauge(name, help).set(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = QERROR_BUCKETS,
                help: str = "") -> None:
        with self._lock:
            self.histogram(name, help, bounds).observe(value)

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        """``{metric name: {kind, help?, ...instrument data}}``, sorted."""
        out = {}
        with self._lock:  # a bump may add an instrument or a label
            for name in sorted(self._instruments):
                instrument = self._instruments[name]
                entry = {"kind": instrument.kind}
                if instrument.help:
                    entry["help"] = instrument.help
                entry.update(instrument.as_dict())
                out[name] = entry
        return out


def render_metrics(metrics: dict) -> str:
    """A human-readable dump of ``db.metrics()``'s instruments (the
    shell's ``\\metrics`` output); sections without a ``kind`` are
    skipped."""
    lines = []
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry.get("kind")
        if kind == "counter":
            lines.append("%-42s %12g" % (name, entry["total"]))
            for label, value in entry.get("by_label", {}).items():
                lines.append("  %-40s %12g" % ("{%s}" % label, value))
        elif kind == "gauge":
            lines.append("%-42s %12g" % (name, entry["value"]))
        elif kind == "histogram":
            mean = entry.get("mean")
            lines.append(
                "%-42s count=%d mean=%s min=%s max=%s"
                % (name, entry["count"],
                   "%.3g" % mean if mean is not None else "-",
                   "%.3g" % entry["min"] if entry["min"] is not None else "-",
                   "%.3g" % entry["max"] if entry["max"] is not None else "-")
            )
            for bucket, count in entry.get("buckets", {}).items():
                lines.append("  %-40s %12d" % (bucket, count))
    return "\n".join(lines) if lines else "(no metrics recorded)"
