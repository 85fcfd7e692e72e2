"""Spans the benchmark records around its own calls into each layer.

The engine is not instrumented: a span here is "the benchmark called
``db.plan(block)`` and it took this long". Spans stay in memory while
the run measures and are written once, at exit, in Chrome-trace form
(``chrome://tracing`` / https://ui.perfetto.dev open the file as is).
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter

# one span: [name, start, end, parent index or -1, statement id, thread]
NAME, START, END, PARENT, STMT, TID = range(6)


def _named(span, name: str) -> bool:
    return span[NAME] == name or span[NAME].startswith(name + ":")


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(self.index)
        tracer.spans[self.index][START] = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tracer = self.tracer
        tracer.spans[self.index][END] = end
        tracer._open.pop()
        return False


class Tracer:
    """Nested spans for one thread (:meth:`span`) plus flat spans that
    any thread may append (:meth:`add`; ``list.append`` is atomic)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name: str, stmt: int) -> _Span:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, stmt, 0])
        return _Span(self, len(self.spans) - 1)

    def add(self, name: str, start: float, end: float, stmt: int,
            tid: int) -> None:
        self.spans.append([name, start, end, -1, stmt, tid])

    def durations_ms(self, name: str) -> list:
        """Durations of the spans called ``name`` or ``name:<detail>``."""
        return [(s[END] - s[START]) * 1e3 for s in self.spans
                if _named(s, name)]

    def self_ms(self, name: str) -> list:
        """Each ``name`` span's duration minus what its child spans
        cover: the time the layer itself (or the benchmark's glue, for
        the root span) spent."""
        covered = {}
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] = (covered.get(s[PARENT], 0.0)
                                      + s[END] - s[START])
        return [(s[END] - s[START] - covered.get(i, 0.0)) * 1e3
                for i, s in enumerate(self.spans) if _named(s, name)]

    def median_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return median(values) if values else 0.0

    def medians_by_name(self) -> dict:
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s[NAME], []).append((s[END] - s[START]) * 1e3)
        return {name: {"n": len(values), "p50_ms": median(values)}
                for name, values in sorted(by_name.items())}

    def write_chrome_trace(self, path, process_name: str) -> None:
        origin = min((s[START] for s in self.spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": process_name}}]
        for index, s in enumerate(self.spans):
            events.append({
                "name": s[NAME], "ph": "X", "pid": 1, "tid": s[TID],
                "ts": round((s[START] - origin) * 1e6, 3),
                "dur": round((s[END] - s[START]) * 1e6, 3),
                "args": {"span": index, "parent": s[PARENT],
                         "stmt": s[STMT]},
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      out)
