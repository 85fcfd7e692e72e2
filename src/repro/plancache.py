"""An LRU-bounded cross-statement plan cache.

The paper's Filter Join search stays cheap ("without changing the
asymptotic complexity"), but in a server that re-optimizes every
statement even a cheap search is paid on every call. This module
amortizes it: a prepared statement plans once and repeated executions
skip bind/optimize entirely, and so does a one-shot text that recurs.

Keying and invalidation rules:

- The cache key is the *normalized* statement text (token-normalized, so
  whitespace, comments, and keyword case do not fragment the cache)
  combined with a fingerprint of the :class:`OptimizerConfig` the plan
  was built under — plans built under different knob settings never
  alias each other.
- Every entry carries the catalog names its statement resolved and
  :meth:`Catalog.inputs` of them, taken when it is stored (after
  planning, so statistics the planner built lazily count). A plan is a
  function of (statement, config, those inputs), so a lookup recomputes
  them under the reader's snapshot and serves the entry only when they
  are equal; else it is discarded (an invalidation) and the lookup
  misses. A write the plan never read invalidates nothing.
- Capacity is LRU-bounded; a capacity of 0 disables caching (every
  lookup misses, stores are dropped).
- Admission: a prepared handle's plan is stored on its first miss
  (:meth:`PlanCache.store`); an ad-hoc text only on its *second* miss
  (:meth:`PlanCache.admit`). A bounded record of recently missed keys,
  as large as the cache, remembers the first one, so a stream of texts
  that never repeat keeps no plan alive.

Counters (hits / misses / invalidations / evictions) are exposed through
:meth:`PlanCache.stats` and surfaced as ``db.cache_stats()``, the
shell's ``\\cache`` command and, through :meth:`PlanCache.events`,
``db.metrics()["plan_cache_events_total"]`` — one set of counters, so
:meth:`PlanCache.clear` resets all three.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from .optimizer.config import OptimizerConfig
from .optimizer.planner import PlannerMetrics
from .optimizer.plans import PlanNode
from .sql import ast
from .sql.lexer import Token, tokenize
from .storage.catalog import Catalog

DEFAULT_CAPACITY = 128


def normalize_statement(source: Union[str, Sequence[Token]]) -> str:
    """Whitespace/comment/keyword-case–insensitive form of a statement.

    Re-joins the statement's tokens — the lexer's token list, or
    ``source`` lexed when it is text — so ``select 1 from t`` and
    ``SELECT 1  FROM t`` share a cache entry. Identifier case is
    preserved (it shapes output column names); string literals are
    re-quoted. One trailing ``;`` is dropped, as the parser accepts one:
    so lexing the result gives back the tokens, and two texts with one
    key have one token stream (up to that ``;``) and one parse.
    """
    tokens = tokenize(source) if isinstance(source, str) else source
    parts = ["'%s'" % token.text.replace("'", "''")
             if token.kind == "string" else token.text
             for token in tokens if token.kind != "eof"]
    if parts and parts[-1] == ";":
        parts.pop()
    return " ".join(parts)


def cache_key(source: Union[str, Sequence[Token]],
              config: OptimizerConfig) -> Tuple[str, str]:
    """The (normalized statement, config fingerprint) cache key."""
    return normalize_statement(source), config.fingerprint


@dataclass
class PlanCacheEntry:
    """One cached plan plus everything needed to execute it again,
    including the statement AST it was planned from: the key fixes the
    token stream, so a hit runs that AST without parsing the text."""

    key: Tuple[str, str]
    plan: PlanNode
    metrics: Optional[PlannerMetrics]
    statement: Optional[ast.Statement] = None
    parameters: list = field(default_factory=list)  # Parameter nodes, in order
    names: Tuple[str, ...] = ()
    inputs: tuple = ()  # Catalog.inputs(names), set by PlanCache.store

    def current(self, catalog: Catalog) -> bool:
        """Would a cold planner read what this plan read, right now?"""
        return catalog.inputs(self.names) == self.inputs


class PlanCache:
    """LRU cache of optimized plans with input-based invalidation."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 0:
            raise ValueError("plan cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], PlanCacheEntry]" = (
            OrderedDict()
        )
        # keys missed once and not yet admitted (values unused)
        self._missed: "OrderedDict[Tuple[str, str], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # the cache is shared by every session of a served database;
        # the lock keeps LRU moves and counter bumps consistent when
        # statements from different connections race (re-entrant:
        # admit() stores under it)
        self._lock = threading.RLock()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def lookup(self, key: Tuple[str, str],
               catalog: Catalog) -> Optional[PlanCacheEntry]:
        """The entry for ``key`` if present *and* current, else None.

        An entry whose inputs moved is discarded and counted as an
        invalidation (plus the miss the caller sees); its key has
        proven to recur, so the re-plan is admitted at once.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if not entry.current(catalog):
                del self._entries[key]
                self._missed[key] = None
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def peek(self, key: Tuple[str, str]) -> Optional[PlanCacheEntry]:
        """The entry for ``key`` without touching LRU order or counters,
        and without checking its inputs: introspection, and ``db.sql``
        finding a statement AST before it would parse."""
        return self._entries.get(key)

    def store(self, entry: PlanCacheEntry, catalog: Catalog) -> None:
        """Insert (or replace) an entry tagged with the current inputs
        of its names, evicting LRU entries past capacity. A no-op when
        the cache is disabled."""
        if not self.enabled:
            return
        with self._lock:
            entry.inputs = catalog.inputs(entry.names)
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def admit(self, entry: PlanCacheEntry, catalog: Catalog) -> None:
        """Store an ad-hoc statement's plan on its key's second miss; the
        first only records the key, in a record bounded like the cache."""
        with self._lock:
            if entry.key in self._missed:
                del self._missed[entry.key]
                self.store(entry, catalog)
            elif self.enabled:
                self._missed[entry.key] = None
                if len(self._missed) > self.capacity:
                    self._missed.popitem(last=False)

    def invalidate_all(self) -> int:
        """Drop every entry (counted as invalidations); returns how many."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock:
            self._entries.clear()
            self._missed.clear()
            self.hits = 0
            self.misses = 0
            self.invalidations = 0
            self.evictions = 0

    def resize(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("plan cache capacity must be >= 0")
        with self._lock:
            self.capacity = capacity
            while len(self._missed) > capacity:
                self._missed.popitem(last=False)
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def events(self) -> dict:
        """``{"hit" | "miss" | "invalidation" | "eviction": count}`` for
        the counters that moved — the labels of
        ``plan_cache_events_total``."""
        with self._lock:
            counts = (("hit", self.hits), ("miss", self.misses),
                      ("invalidation", self.invalidations),
                      ("eviction", self.evictions))
        return {label: count for label, count in counts if count}

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def __repr__(self) -> str:
        return ("PlanCache(%d/%d entries, %d hits, %d misses, "
                "%d invalidations)" % (
                    len(self._entries), self.capacity, self.hits,
                    self.misses, self.invalidations,
                ))
