"""Execution runtime: cost accounting, deadlines, and resource limits.

The :class:`RuntimeContext` is threaded through every operator. It holds
the measured :class:`CostLedger`, the memory budget that decides when
temps/sorts/hash tables "spill" (spills are charged, not performed — the
page model substitutes for a disk, see DESIGN.md), the run-time bindings
of filter sets produced by Filter Join / nested-iteration operators, and
the resilience state added for distributed execution:

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
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ExecutionError, QueryTimeout, ResourceExhausted
from ..ledger import CostLedger, CostParams
from ..storage.columnar import ColumnStore
from ..storage.schema import Schema
from ..storage.table import pages_for

#: how many charge_cpu calls between deadline checks (power of two - 1)
_DEADLINE_CHECK_MASK = 255


@dataclass
class TempTable:
    """A materialized intermediate: rows plus spill bookkeeping.

    ``store`` holds the same rows column-major when the producer had
    them as typed vectors, so a batch-wise rescan stays columnar."""

    rows: List[tuple]
    schema: Schema
    spilled: bool = False
    store: Optional[ColumnStore] = None

    @property
    def num_pages(self) -> float:
        return pages_for(len(self.rows), self.schema.row_width())


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
        # when set (a TraceBuilder), lowering wraps every operator in a
        # SpanOperator and the ledger is teed into the active span
        self.trace = None
        self.memory_pages = memory_pages
        self.message_payload_bytes = message_payload_bytes
        # param_id -> TempTable holding the exact filter set
        self.filter_sets: Dict[str, TempTable] = {}
        # param_id -> membership structure (set of keys, or a BloomFilter)
        self.memberships: Dict[str, object] = {}
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

    def charge_rescan(self, temp: TempTable) -> None:
        self.ledger.charge_cpu(len(temp.rows))
        if temp.spilled:
            self.ledger.charge_reads(temp.num_pages)

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

    def bind_filter_set(self, param_id: str, temp: TempTable) -> None:
        self.filter_sets[param_id] = temp
        # Exact sets double as membership structures for RuntimeMembership.
        if len(temp.schema) == 1:
            keys = {row[0] for row in temp.rows}
        else:
            keys = set(temp.rows)
        self.memberships[param_id] = keys

    def bind_membership(self, param_id: str, structure) -> None:
        self.memberships[param_id] = structure

    def filter_set(self, param_id: str) -> TempTable:
        try:
            return self.filter_sets[param_id]
        except KeyError:
            raise ExecutionError(
                "filter set %r was not bound before execution" % param_id
            )

    def membership(self, param_id: str):
        try:
            return self.memberships[param_id]
        except KeyError:
            raise ExecutionError(
                "membership %r was not bound before execution" % param_id
            )
