"""Distributed database façade (Section 5.1).

A :class:`DistributedDatabase` is the same engine with tables placed at
named sites and non-zero network weights in the cost model. The optimizer
then naturally chooses between:

- **fetch inner** (System R*): ship the whole inner to the join site;
- **fetch matches** (System R*): probe a remote index per outer row
  (index-nested-loops with per-probe message round-trips);
- **semi-join** (SDD-1): a Filter Join — ship the filter set, restrict
  remotely, ship back the restricted inner;
- **Bloom join**: the lossy Filter Join with a fixed-size shipped filter.

All four are costed with the same Table-1 formula, with the two
AvailCost terms carrying the shipping costs — exactly the paper's
"minimal modification".

The prepared-statement API and the plan cache work here too
(``db.prepare(...)`` / ``db.cache_stats()``): distributed plans embed
ship decisions that depend on table placement, so a cached plan carries
the effective site of each table it read — a query re-optimized after a
move picks fresh ship/semi-join choices instead of running a stale
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..database import Database
from ..errors import SiteUnavailable
from ..ledger import CostParams
from ..optimizer.config import OptimizerConfig
from ..storage.schema import DataType
from .network import FaultInjector, FaultPlan, RetryPolicy, SimulatedNetwork


def distributed_config(msg_cost: float = 1.0,
                       byte_cost: float = 0.0005,
                       **overrides) -> OptimizerConfig:
    """An optimizer config with network costs enabled.

    ``msg_cost`` is charged per message (latency), ``byte_cost`` per
    payload byte (bandwidth); both in the same units as one page I/O.
    """
    params = CostParams(net_msg_weight=msg_cost, net_byte_weight=byte_cost)
    config = OptimizerConfig(cost_params=params)
    return config.replace(**overrides) if overrides else config


@dataclass
class DegradationEvent:
    """A recorded mid-query fallback: a site exhausted its retry
    budget, was marked down, and the statement was re-optimized."""

    site: str
    statement: str
    attempts: int
    fallback_sites: List[str] = field(default_factory=list)


class DistributedDatabase(Database):
    """A multi-site simulated distributed DBMS.

    Every shipment in a lowered plan routes through ``self.network``, a
    :class:`SimulatedNetwork` whose :class:`FaultInjector` can be
    configured (``set_fault_plan``) to drop, delay, or truncate
    messages, or to take whole sites down — deterministically, from a
    seed. When a site exceeds its retry budget mid-query, the executor
    raises :class:`SiteUnavailable`; this class catches it, marks the
    site down in the catalog (so the plan cache can never serve a plan
    that ships to the dead site), records
    a :class:`DegradationEvent`, and transparently re-optimizes the
    statement against the surviving placement — a registered replica
    site, or the coordinator-local fallback copy.
    """

    LOCAL = None  # the coordinator/query site

    def __init__(self, config: Optional[OptimizerConfig] = None,
                 network: Optional[SimulatedNetwork] = None,
                 plan_cache_size: Optional[int] = None):
        if plan_cache_size is None:
            super().__init__(config or distributed_config())
        else:
            super().__init__(config or distributed_config(),
                             plan_cache_size)
        self._site_names = set()
        self.network = network or SimulatedNetwork()
        self.degradation_events: List[DegradationEvent] = []

    # ----------------------------------------------------------------- sites

    def add_site(self, name: str) -> str:
        self._site_names.add(name)
        return name

    @property
    def sites(self) -> List[str]:
        return sorted(self._site_names)

    def create_table(self, name: str,
                     columns: Optional[Sequence[Tuple[str, DataType]]] = None,
                     site: Optional[str] = None, *,
                     schema=None, rows=None):
        """Create a table, optionally placed at a remote site."""
        table = super().create_table(name, columns, schema=schema,
                                     rows=rows)
        if site is not None:
            if site not in self._site_names:
                self.add_site(site)
            self.catalog.set_table_site(name, site)
        return table

    def place_table(self, name: str, site: Optional[str]) -> None:
        """Move an existing table to a site (None = local).

        Placement shapes every ship/fetch/semi-join decision: cached
        plans that baked in the old placement miss and are re-optimized
        on their next execution.
        """
        if site is not None and site not in self._site_names:
            self.add_site(site)
        self.catalog.set_table_site(name, site)

    def site_of(self, name: str) -> Optional[str]:
        return self.catalog.site_for_table(name)

    def add_replica(self, table: str, site: str) -> None:
        """Register a replica placement used when the primary site is
        down."""
        if site not in self._site_names:
            self.add_site(site)
        self.catalog.add_replica(table, site)

    # ----------------------------------------------------------- site status

    def mark_site_down(self, site: str) -> None:
        """Take a site out of placement decisions; cached plans that
        read a table placed there miss."""
        self.catalog.set_site_available(site, False)

    def mark_site_up(self, site: str) -> None:
        self.catalog.set_site_available(site, True)

    @property
    def down_sites(self) -> List[str]:
        return self.catalog.down_sites()

    # --------------------------------------------------------------- faults

    def set_fault_plan(self, plan: Optional[FaultPlan], seed: int = 0,
                       retry_policy: Optional[RetryPolicy] = None) -> None:
        """Install (or clear, with ``plan=None``) a deterministic fault
        schedule on the network transport."""
        if retry_policy is not None:
            self.network.retry_policy = retry_policy
        self.network.set_fault_plan(plan, seed)

    def resilience_stats(self) -> dict:
        """Network counters plus site status and degradation history."""
        stats = self.network.stats.as_dict()
        stats["down_sites"] = self.down_sites
        stats["degradations"] = len(self.degradation_events)
        return stats

    # ------------------------------------------------------------ execution

    def _execute_statement(self, statement, original_text, key,
                           config, opts, parse_seconds=0.0, params=None):
        """Execute with graceful degradation: on ``SiteUnavailable``,
        mark the site down, record the event, and re-optimize against
        the surviving placement. Bounded by the number of known sites,
        so a schedule that kills everything still terminates with a
        typed error."""
        fallbacks = 0
        log = self.event_log
        while True:
            retries_before = self.network.stats.retries if log.enabled else 0
            try:
                result = super()._execute_statement(
                    statement, original_text, key, config, opts,
                    parse_seconds, params,
                )
                if log.enabled:
                    delta = self.network.stats.retries - retries_before
                    if delta:
                        log.emit("retry", query_id=result.query_id,
                                 retries=delta)
                return result
            except SiteUnavailable as exc:
                site = exc.site
                if (site is None or self.catalog.site_is_down(site)
                        or fallbacks >= max(1, len(self._site_names))):
                    raise
                # the failed attempt was undone statement-atomically and
                # marked the open transaction aborted; this fallback is
                # an internal retry, not a user-visible statement
                # failure, so the transaction stays usable
                self.txn.clear_aborted()
                self.mark_site_down(site)
                survivors = [
                    s for s in self.sites
                    if not self.catalog.site_is_down(s)
                ]
                self.degradation_events.append(DegradationEvent(
                    site=site,
                    statement=original_text,
                    attempts=exc.attempts,
                    fallback_sites=survivors,
                ))
                self.metrics_registry.inc("degradation_events_total",
                                          label=site)
                if log.enabled:
                    # the failed attempt's query id (its record ended
                    # with status "error"); the re-optimized retry
                    # below gets a fresh one
                    log.emit("degradation", query_id=exc.query_id,
                             site=site, attempts=exc.attempts,
                             fallback_sites=survivors)
                fallbacks += 1

    # ---------------------------------------------------------- observability

    def metrics(self) -> dict:
        """Database metrics plus a per-site section: availability,
        placed tables, degradations, and per-link traffic."""
        data = super().metrics()
        retries = self.network.stats.retries
        if retries:
            data["network_retries_total"] = {
                "kind": "counter", "total": retries,
            }
        per_site = {}
        for site in self.sites:
            per_site[site] = {
                "status": ("down" if self.catalog.site_is_down(site)
                           else "up"),
                "tables": sorted(
                    table.name for table in self.catalog.tables()
                    if self.catalog.site_for_table(table.name) == site
                ),
                "degradations": sum(
                    1 for event in self.degradation_events
                    if event.site == site
                ),
                "sent_messages": 0, "sent_bytes": 0.0,
                "received_messages": 0, "received_bytes": 0.0,
            }
        for (from_site, to_site), (messages, nbytes) in \
                self.network.link_stats.items():
            if from_site in per_site:
                per_site[from_site]["sent_messages"] += messages
                per_site[from_site]["sent_bytes"] += nbytes
            if to_site in per_site:
                per_site[to_site]["received_messages"] += messages
                per_site[to_site]["received_bytes"] += nbytes
        data["sites"] = per_site
        return data
