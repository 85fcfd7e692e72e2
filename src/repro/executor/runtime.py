"""Execution runtime: cost accounting, deadlines, and resource limits.

The :class:`RuntimeContext` is threaded through every operator. It holds
the measured :class:`CostLedger`, the memory budget that decides when
temps/sorts/hash tables "spill" (spills are charged, not performed — the
page model substitutes for a disk, see DESIGN.md), the run-time bindings
of the :class:`FilterSet` values produced by Filter Join /
nested-iteration / fixpoint operators, and the resilience state added
for distributed execution:

- an optional :class:`~repro.distributed.network.SimulatedNetwork` that
  every shipment routes through (fault injection, retry/backoff);
- an optional per-query deadline, checked inside every operator's row
  loop (piggybacked on ``charge_cpu``) and after simulated network
  delay, raising :class:`~repro.errors.QueryTimeout`;
- an optional per-query memory budget in bytes: operators account the
  bytes they hold (hash tables, sorts, materialized temps, filter sets)
  and the query fails with :class:`~repro.errors.ResourceExhausted`
  instead of growing unboundedly.

Deadlines combine wall-clock time with a *simulated clock*: latency
spikes and retry backoff advance ``simulated_seconds`` without
sleeping, so fault schedules abort deterministically.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterator, List, Optional, Sequence

from ..bloom.filter import ARRAY_KERNELS, BloomFilter
from ..errors import ExecutionError, QueryTimeout, ResourceExhausted
from ..ledger import CostLedger, CostParams
from ..storage import columnar
from ..storage.columnar import ColumnStore, ColumnVector
from ..storage.schema import Schema
from ..storage.table import pages_for
from .vectorize import (
    SMALL_DOMAIN,
    Batch,
    batches_from_list,
    batches_from_store,
    key_hashes,
    probe_array,
)

_np = columnar.np

#: how many charge_cpu calls between deadline checks (power of two - 1)
_DEADLINE_CHECK_MASK = 255


def _distinct_keys(columns: Sequence) -> Optional[List[ColumnVector]]:
    """The distinct null-free key tuples over typed ``columns``, one
    ColumnVector per key column, in the order ``sorted(keys)`` gives
    the same tuples (strings by dictionary rank); among equal values
    (``0.0`` / ``-0.0``) the first one seen survives, as in a Python
    set. None when a column is not a ColumnVector — the caller then
    builds the set row-wise."""
    if not columns or not all(
            isinstance(c, ColumnVector) for c in columns):
        return None
    valid = None
    for column in columns:
        if column.mask is not None:
            valid = column.mask if valid is None else valid & column.mask
    if valid is not None:
        columns = [column.select(valid) for column in columns]
    sort_keys = [
        (c.dictionary.sort_ranks()[c.values] if c.dictionary is not None
         else c.values)
        for c in columns
    ]
    order = _np.lexsort(sort_keys[::-1])  # stable; first column primary
    if len(order) > 1:
        first_of_run = _np.ones(len(order), dtype=_np.bool_)
        changed = False
        for key in sort_keys:
            ordered = key[order]
            changed = changed | (ordered[1:] != ordered[:-1])
        first_of_run[1:] = changed
        order = order[first_of_run]
    return [column.take(order) for column in columns]


class FilterSet:
    """A bound filter set — the one run-time object behind magic sets,
    the semi-join, the Bloom join and consecutive-call UDF evaluation:
    built from a production set, made available under a parameter id,
    used to restrict the inner, joined back.

    The keys are held once, as typed ``columns`` when the producer had
    them and as ``rows`` otherwise. The other views are derived on
    first use: :attr:`rows` (exact Python tuples, for per-element
    consumers), :attr:`keys` (the Python set an exact probe tests) and,
    when ``bloom_bits`` makes the set lossy, the :attr:`bloom` bitmap.
    """

    def __init__(self, schema: Schema, rows: Optional[List[tuple]] = None,
                 columns: Optional[List[ColumnVector]] = None,
                 bloom_bits: Optional[int] = None, spilled: bool = False):
        self.schema = schema
        self.columns = columns
        self._rows = rows
        self.size = len(rows) if columns is None else len(columns[0])
        self.bloom_bits = bloom_bits
        self.spilled = spilled
        # lossy probes that ran the bitmap kernel / fell back; the
        # Filter Join that built the set adds them to its own counts
        self.kernel_batches = self.fallback_batches = 0
        self._keys = None
        self._bloom: Optional[BloomFilter] = None
        # probe arrays / hash tables per probing column domain: built
        # once per bound set however many batches probe it
        self._probe_cache: dict = {}

    @classmethod
    def distinct(cls, schema: Schema, bind_columns: Sequence,
                 bloom_bits: Optional[int] = None) -> "FilterSet":
        """The distinct null-free keys of a production set's bind
        columns, sorted: one stable lexsort over typed columns, the
        Python set when a column is not exactly encodable."""
        columns = _distinct_keys(bind_columns)
        if columns is not None:
            return cls(schema, columns=columns, bloom_bits=bloom_bits)
        key_rows = zip(*map(columnar.materialize, bind_columns))
        rows = sorted(key for key in set(key_rows) if None not in key)
        return cls(schema, rows=rows, bloom_bits=bloom_bits)

    @property
    def lossy(self) -> bool:
        return self.bloom_bits is not None

    @property
    def num_pages(self) -> float:
        return pages_for(self.size, self.schema.row_width())

    @property
    def rows(self) -> List[tuple]:
        if self._rows is None:
            self._rows = list(zip(*[c.tolist() for c in self.columns]))
        return self._rows

    @property
    def keys(self) -> set:
        """What ``in`` tests exactly: bare values for a one-column
        set, tuples for a composite one."""
        if self._keys is None:
            rows = self.rows
            self._keys = ({row[0] for row in rows}
                          if len(self.schema) == 1 else set(rows))
        return self._keys

    @property
    def bloom(self) -> BloomFilter:
        if self._bloom is None:
            bloom = BloomFilter(self.bloom_bits,
                                expected_items=max(1, self.size))
            if self.columns is not None and ARRAY_KERNELS:
                bloom.add_hashes(key_hashes(self.columns, {}))
            else:
                bloom.add_all(key if len(key) > 1 else key[0]
                              for key in self.rows)
            self._bloom = bloom
        return self._bloom

    def scan(self) -> Iterator[Batch]:
        """The set as batches, typed when the keys are."""
        if self.columns is not None:
            return batches_from_store(
                ColumnStore(self.schema, self.columns, self.size))
        return batches_from_list(self._rows, len(self.schema))

    def __contains__(self, key) -> bool:
        return key in (self.bloom if self.lossy else self.keys)

    def contains(self, key_columns: Sequence):
        """``key in self`` for every row of ``key_columns``, as one
        column: the bitmap kernel over hashed lanes for a lossy set,
        ``np.isin`` against a probe array for an exact one-column set,
        else element by element over exact Python objects; once per
        distinct key (:meth:`_memoized`) for a narrow key column."""
        result = None
        if all(isinstance(k, ColumnVector) for k in key_columns):
            if len(key_columns) == 1:
                result = self._memoized(key_columns[0])
            if result is None:
                result = self._kernel(key_columns)
        if self.lossy:
            if result is None:
                self.fallback_batches += 1
            else:
                self.kernel_batches += 1
        if result is not None:
            return result
        member = self.bloom if self.lossy else self.keys
        columns = [columnar.materialize(c) for c in key_columns]
        if len(columns) == 1:
            return [key in member for key in columns[0]]
        return [key in member for key in zip(*columns)]

    def _kernel(self, key_columns) -> Optional[ColumnVector]:
        if not self.lossy:
            return (self._isin(key_columns[0]) if len(key_columns) == 1
                    else None)
        if ARRAY_KERNELS:
            return ColumnVector(self.bloom.contains_hashes(
                key_hashes(key_columns, self._probe_cache)), None)
        return None

    def _memoized(self, vec: ColumnVector) -> Optional[ColumnVector]:
        """The kernel's verdicts for dictionary codes or int64 values
        from a table per column domain, ``(lo, one int8 per value, -1
        until asked)``, grown up to ``SMALL_DOMAIN`` values: the kernel
        sees each distinct key once. None if it cannot."""
        values = vec.values
        if vec.dictionary is None and values.dtype != _np.int64:
            return None
        valid = vec.mask
        if valid is not None:
            values = values[valid]
        if not len(values):
            return None
        least, most = int(values.min()), int(values.max())
        domain = ("verdicts", vec.dictionary)
        lo, table = self._probe_cache.get(domain, (least, _np.int8([])))
        bottom, top = min(lo, least), max(lo + len(table), most + 1)
        if top - bottom > SMALL_DOMAIN:
            return None
        if top - bottom > len(table):
            grown = _np.full(top - bottom, -1, dtype=_np.int8)
            grown[lo - bottom:lo - bottom + len(table)] = table
            lo, table = self._probe_cache[domain] = bottom, grown
        codes = values - lo
        found = table[codes]
        if found.min() < 0:
            new = _np.flatnonzero(_np.bincount(codes[found < 0]))
            answer = self._kernel([ColumnVector(
                (new + lo).astype(values.dtype), None, vec.dictionary)])
            if answer is None:
                return None
            table[new] = answer.values
            found = table[codes]
        found = found > 0
        if valid is not None:
            flags = _np.full(len(valid), None in self, dtype=_np.bool_)
            flags[valid] = found
            found = flags
        return ColumnVector(found, None)

    def _isin(self, vec: ColumnVector) -> Optional[ColumnVector]:
        # a grown dictionary may encode more of the keys: a new domain
        domain = ((vec.dictionary, len(vec.dictionary))
                  if vec.dictionary is not None else str(vec.values.dtype))
        if domain not in self._probe_cache:
            self._probe_cache[domain] = probe_array(vec, self.keys)
        probe = self._probe_cache[domain]
        if probe is None:
            return None
        found = (_np.isin(vec.values, probe) if len(probe)
                 else _np.zeros(len(vec.values), dtype=_np.bool_))
        if vec.mask is not None:
            # a NULL key behaves like ``None in keys``
            found = _np.where(vec.mask, found, None in self.keys)
        return ColumnVector(found, None)


class RuntimeContext:
    """Shared state for one plan execution."""

    def __init__(self, ledger: Optional[CostLedger] = None,
                 params: Optional[CostParams] = None,
                 memory_pages: int = 128,
                 message_payload_bytes: int = 8192,
                 network=None,
                 deadline_seconds: Optional[float] = None,
                 memory_budget_bytes: Optional[float] = None,
                 max_fixpoint_iterations: int = 1000):
        self.ledger = ledger if ledger is not None else CostLedger()
        self.params = params or CostParams()
        self.memory_pages = memory_pages
        self.message_payload_bytes = message_payload_bytes
        # param_id -> the set a Filter Join, nested iteration or
        # fixpoint pass bound; scans and membership probes both read it
        self.filter_sets: Dict[str, FilterSet] = {}
        # --- resilience state ---
        self.network = network
        self.deadline_seconds = deadline_seconds
        self.simulated_seconds = 0.0
        self._started = time.monotonic()
        self._tick = 0
        self.memory_budget_bytes = memory_budget_bytes
        self.mem_held_bytes = 0.0
        self.mem_peak_bytes = 0.0
        # cap on semi-naive fixpoint passes (FixpointLimitExceeded)
        self.max_fixpoint_iterations = max_fixpoint_iterations
        if deadline_seconds is not None:
            # shadow the class method so the per-row hot path pays for
            # deadline checks only when a deadline exists
            self.charge_cpu = self._charge_cpu_with_deadline

    # -------------------------------------------------------------- deadline

    def advance_clock(self, seconds: float) -> None:
        """Advance the simulated clock (latency spikes, retry backoff)."""
        self.simulated_seconds += seconds

    def elapsed_seconds(self) -> float:
        return (time.monotonic() - self._started) + self.simulated_seconds

    def check_deadline(self) -> None:
        """Raise :class:`QueryTimeout` if the deadline has passed."""
        if self.deadline_seconds is None:
            return
        elapsed = self.elapsed_seconds()
        if elapsed > self.deadline_seconds:
            raise QueryTimeout(
                "query exceeded its %.3fs deadline (%.3fs elapsed, of "
                "which %.3fs simulated network delay)"
                % (self.deadline_seconds, elapsed, self.simulated_seconds),
                elapsed=elapsed, timeout=self.deadline_seconds,
            )

    # -------------------------------------------------------------- charging

    def fits(self, pages: float) -> bool:
        return pages <= self.memory_pages

    def charge_scan(self, num_pages: float) -> None:
        self.ledger.charge_reads(max(1.0, num_pages))

    def charge_cpu(self, steps: float = 1.0) -> None:
        self.ledger.charge_cpu(steps)

    def _charge_cpu_with_deadline(self, steps: float = 1.0) -> None:
        self.ledger.charge_cpu(steps)
        # count *steps*, not calls: an operator charges a whole batch
        # in one call, and must hit deadline checks as often per row as
        # one that charges row by row
        self._tick += int(steps) if steps > 1 else 1
        if self._tick > _DEADLINE_CHECK_MASK:
            self._tick = 0
            self.check_deadline()

    def charge_materialize(self, rows: int, width: int) -> float:
        """Charge building a temp; returns its page count."""
        self.ledger.charge_cpu(rows)
        temp_pages = pages_for(rows, width)
        if not self.fits(temp_pages):
            self.ledger.charge_writes(temp_pages)
        return temp_pages

    def charge_rescan(self, filter_set: FilterSet) -> None:
        self.ledger.charge_cpu(filter_set.size)
        if filter_set.spilled:
            self.ledger.charge_reads(filter_set.num_pages)

    # ------------------------------------------------------------ networking

    def charge_ship(self, rows: float, width: int,
                    from_site: Optional[str] = None,
                    to_site: Optional[str] = None) -> None:
        """Ship ``rows`` of ``width`` bytes between sites.

        Routed through the simulated network when one is installed (so
        fault injection, retries, and deadline-advancing backoff apply);
        otherwise charged inline exactly as before.
        """
        nbytes = max(0.0, rows) * width
        if self.network is not None:
            self.network.transfer(self, from_site, to_site, nbytes)
        else:
            messages = max(1, math.ceil(nbytes / self.message_payload_bytes))
            self.ledger.charge_network(messages, nbytes)
        self.charge_cpu(rows)

    def charge_message(self, nbytes: float,
                       from_site: Optional[str] = None,
                       to_site: Optional[str] = None) -> None:
        """One message of ``nbytes`` (e.g. a shipped Bloom filter)."""
        if self.network is not None:
            self.network.transfer(self, from_site, to_site, nbytes)
        else:
            self.ledger.charge_message(nbytes)

    def charge_filter_ship(self, filter_set: FilterSet,
                           from_site: Optional[str] = None,
                           to_site: Optional[str] = None) -> None:
        """Ship a filter set to the inner's site: its rows when exact,
        the fixed-size bitmap in one message when lossy."""
        if filter_set.lossy:
            self.charge_message(filter_set.bloom.size_bytes,
                                from_site=from_site, to_site=to_site)
        else:
            self.charge_ship(filter_set.size,
                             filter_set.schema.row_width(),
                             from_site=from_site, to_site=to_site)

    def charge_probe_roundtrip(self, local_site: Optional[str],
                               remote_site: Optional[str],
                               request_bytes: float,
                               response_bytes: float) -> None:
        """A fetch-matches probe: request out, matching rows back."""
        if self.network is not None:
            self.network.transfer(self, local_site, remote_site,
                                  request_bytes)
            self.network.transfer(self, remote_site, local_site,
                                  response_bytes)
        else:
            self.ledger.charge_network(2, request_bytes + response_bytes)

    # --------------------------------------------------------------- memory

    def mem_acquire(self, nbytes: float) -> None:
        """Account ``nbytes`` of operator working memory against the
        per-query budget; raises :class:`ResourceExhausted` when the
        budget would be exceeded."""
        if nbytes <= 0:
            return
        held = self.mem_held_bytes + nbytes
        budget = self.memory_budget_bytes
        if budget is not None and held > budget:
            raise ResourceExhausted(
                "operator memory request of %d bytes would exceed the "
                "per-query budget (%d of %d bytes already held)"
                % (nbytes, self.mem_held_bytes, budget),
                requested_bytes=nbytes, budget_bytes=budget,
            )
        self.mem_held_bytes = held
        if held > self.mem_peak_bytes:
            self.mem_peak_bytes = held

    def mem_release(self, nbytes: float) -> None:
        self.mem_held_bytes = max(0.0, self.mem_held_bytes - nbytes)

    # --------------------------------------------------------- filter sets

    def bind_filter_set(self, param_id: str, filter_set: FilterSet) -> None:
        self.filter_sets[param_id] = filter_set

    def filter_set(self, param_id: str) -> FilterSet:
        try:
            return self.filter_sets[param_id]
        except KeyError:
            raise ExecutionError(
                "filter set %r was not bound before execution" % param_id
            )
