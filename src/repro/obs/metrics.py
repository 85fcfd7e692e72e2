"""Process-wide metrics: counters, gauges, and histograms.

Every :class:`~repro.database.Database` owns a :class:`MetricsRegistry`
chained to the process-global registry (:func:`global_metrics`), so a
multi-database process — a :class:`DistributedDatabase` coordinator with
one embedded database per site, say — aggregates for free: instruments
record into their owning registry *and* every parent up the chain.

The catalog (see ``docs/observability.md``) covers queries by statement
kind, plan-cache hit/miss/invalidation, network retries and degradation
events, rows produced per operator class, and the per-query cardinality
q-error distribution. Instruments are deliberately primitive — plain
dict bumps, no timestamps, one flat lock per registry so concurrent
sessions never lose an update — so always-on recording costs well
under a microsecond a bump; there is no switch, and ``bench/run.py``
measures every workload with the registry recording.
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


class MetricsRegistry:
    """A named collection of instruments, optionally chained to a parent.

    ``counter``/``gauge``/``histogram`` get-or-create an instrument;
    recording helpers (:meth:`inc`, :meth:`observe`) bump the local
    instrument and recurse into the parent chain so process-level
    aggregates need no extra plumbing.
    """

    def __init__(self, name: str = "",
                 parent: Optional["MetricsRegistry"] = None):
        self.name = name
        self.parent = parent
        self._instruments: Dict[str, object] = {}
        # read-modify-write bumps are not atomic under concurrent
        # sessions; each registry locks its own instruments (the parent
        # chain locks registry by registry, so there is no lock order
        # to get wrong)
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
        if self.parent is not None:
            self.parent.inc(name, amount, label, help)

    def set_gauge(self, name: str, value: float, help: str = "") -> None:
        with self._lock:
            self.gauge(name, help).set(value)
        if self.parent is not None:
            self.parent.set_gauge(name, value, help)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = QERROR_BUCKETS,
                help: str = "") -> None:
        with self._lock:
            self.histogram(name, help, bounds).observe(value)
        if self.parent is not None:
            self.parent.observe(name, value, bounds, help)

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        """``{metric name: {kind, help?, ...instrument data}}``, sorted."""
        out = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            entry = {"kind": instrument.kind}
            if instrument.help:
                entry["help"] = instrument.help
            entry.update(instrument.as_dict())
            out[name] = entry
        return out

    def render(self) -> str:
        """A human-readable dump (the shell's ``\\metrics`` output)."""
        lines = []
        for name, entry in self.as_dict().items():
            kind = entry["kind"]
            if kind == "counter":
                lines.append("%-42s %12g" % (name, entry["total"]))
                for label, value in entry.get("by_label", {}).items():
                    lines.append("  %-40s %12g" % ("{%s}" % label, value))
            elif kind == "gauge":
                lines.append("%-42s %12g" % (name, entry["value"]))
            else:
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

    def reset(self) -> None:
        """Drop all local instruments (parents are untouched)."""
        self._instruments = {}


_GLOBAL = MetricsRegistry("process")


def global_metrics() -> MetricsRegistry:
    """The process-wide registry every Database chains to by default."""
    return _GLOBAL
