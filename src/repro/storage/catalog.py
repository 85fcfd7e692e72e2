"""The catalog: tables, views, and their statistics.

The catalog is the optimizer's window onto the database. Statistics are
computed by :meth:`Catalog.analyze` (per table) and held in
:class:`TableStats` / :class:`ColumnStats`; view definitions are stored as
SQL text and bound on demand by the SQL front end, because the paper
treats views as *virtual relations* whose plans are chosen per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import CatalogError
from ..stats.histogram import (
    EquiDepthHistogram,
    EquiWidthHistogram,
    FrequencyHistogram,
)
from ..udf.relation import FunctionRegistry
from . import columnar
from .mvcc import MVCCState
from .schema import DataType, Schema
from .table import Table


@dataclass
class ColumnStats:
    """Statistics for one column of one table."""

    num_distinct: float
    min_value: object = None
    max_value: object = None
    null_fraction: float = 0.0
    histogram: Optional[EquiWidthHistogram] = None
    frequencies: Optional[FrequencyHistogram] = None

    def selectivity_eq(self, value) -> float:
        """Estimated fraction of rows equal to ``value``."""
        if self.frequencies is not None:
            return self.frequencies.selectivity_eq(value)
        if self.histogram is not None:
            return self.histogram.selectivity_eq(value)
        return 1.0 / max(1.0, self.num_distinct)

    def selectivity_cmp(self, op: str, value) -> float:
        """Estimated selectivity of ``column <op> value``."""
        if op == "=":
            return self.selectivity_eq(value)
        if op in ("!=", "<>"):
            return max(0.0, 1.0 - self.selectivity_eq(value))
        try:
            if self.frequencies is not None and value is not None:
                # exact range selectivity from the tracked value counts
                total = self.frequencies.total
                if total > 0:
                    return self.frequencies.count_cmp(op, value) / total
            if self.histogram is not None:
                if op == "<":
                    return self.histogram.selectivity_lt(value)
                if op == "<=":
                    return self.histogram.selectivity_lt(value, inclusive=True)
                if op == ">":
                    return self.histogram.selectivity_gt(value)
                if op == ">=":
                    return self.histogram.selectivity_gt(value, inclusive=True)
        except TypeError:
            # a literal the column's values cannot be ordered with: the
            # estimate is moot, the comparison raises its typed error
            # when the plan runs
            pass
        # No histogram: fall back to System R's magic 1/3.
        return 1.0 / 3.0


@dataclass(eq=False)
class TableStats:
    """Statistics for one stored table. Replaced wholesale by analyze
    and never mutated, so two are equal only when they are one object."""

    num_rows: int
    num_pages: int
    row_width: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


@dataclass(eq=False)
class ViewDefinition:
    """A named view: SQL text plus optional output column aliases.

    ``recursive`` marks a ``CREATE RECURSIVE VIEW``: its body may
    reference the view's own name and is bound to a fixpoint relation
    instead of an ordinary virtual relation. Compared by identity, like
    every object in a :meth:`Catalog.inputs` tag.
    """

    name: str
    sql_text: str
    column_aliases: Optional[List[str]] = None
    recursive: bool = False


def compute_table_stats(table: Table, num_buckets: int = 20,
                        histogram_kind: str = "equi_depth") -> TableStats:
    """Scan a table once and build full statistics for every column.

    ``histogram_kind`` is "equi_depth" (default; robust to skew) or
    "equi_width" (the classic System-R form).
    """
    if histogram_kind not in ("equi_depth", "equi_width"):
        raise CatalogError("unknown histogram kind %r" % histogram_kind)
    histogram_cls = (EquiDepthHistogram if histogram_kind == "equi_depth"
                     else EquiWidthHistogram)
    stats = TableStats(
        num_rows=table.num_rows,
        num_pages=table.num_pages,
        row_width=table.schema.row_width(),
    )
    store = table.columnar_view()
    for position, column in enumerate(table.schema):
        values = ([] if store is None
                  else columnar.materialize(store.columns[position]))
        non_null = [v for v in values if v is not None]
        null_fraction = (
            (len(values) - len(non_null)) / len(values) if values else 0.0
        )
        distinct = len(set(non_null))
        col_stats = ColumnStats(
            num_distinct=float(max(distinct, 1)),
            min_value=min(non_null) if non_null else None,
            max_value=max(non_null) if non_null else None,
            null_fraction=null_fraction,
        )
        if non_null and column.dtype in (DataType.INT, DataType.FLOAT):
            col_stats.histogram = histogram_cls.build(
                non_null, num_buckets=num_buckets
            )
        col_stats.frequencies = FrequencyHistogram.build(non_null)
        stats.columns[column.name] = col_stats
    return stats


class Catalog:
    """Registry of tables, views, functions, and statistics."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, ViewDefinition] = {}
        self._stats: Dict[str, TableStats] = {}
        self._sites: Dict[str, str] = {}
        self._replicas: Dict[str, List[str]] = {}
        self._down_sites: set = set()
        #: function relations, the last names the binder resolves
        self.functions = FunctionRegistry()
        #: snapshot/commit bookkeeping shared by every table installed
        #: in this catalog (see repro.storage.mvcc)
        self.mvcc = MVCCState()
        # called as listener(table_name_or_None, prior_stats_snapshot)
        # at the start of every analyze(); the transaction manager
        # hooks this so stats rebuilds — including the planner's lazy
        # ones — are undoable inside a transaction
        self.analyze_listener = None

    # ---------------------------------------------------------------- inputs

    def inputs(self, names: Sequence[str]) -> tuple:
        """What the planner reads of each lowercase name in ``names``,
        in order: the tag the plan cache and the restriction memo keep
        beside a result and compare on lookup.

        A name gives what it resolves to now, in the binder's order (a
        :class:`Table`, a :class:`ViewDefinition`, a function factory,
        or None); a table adds its row count under the current snapshot,
        page count, cluster column, indexes (column, kind), its
        :class:`TableStats` (None until built) and its effective site.
        Objects compare by identity; the tag holds them.
        """
        out = []
        for name in names:
            table = self._tables.get(name)
            if table is None:
                out.append(self._views.get(name)
                           or self.functions.factory(name))
                continue
            out.append((
                table, table.num_rows, table.num_pages, table.clustered_on,
                tuple(sorted((column, index.kind)
                             for column, index in table.indexes.items())),
                self._stats.get(name), self.site_for_table(name),
            ))
        return tuple(out)

    # ---------------------------------------------------------------- tables

    def create_table(self, name: str, schema: Schema) -> Table:
        key = name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError("relation %r already exists" % name)
        table = Table(name, schema)
        table._mvcc = self.mvcc
        self._tables[key] = table
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError("no table named %r" % name)
        del self._tables[key]
        self._stats.pop(key, None)
        self._sites.pop(key, None)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError("no table named %r" % name)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    # ----------------------------------------------------------------- views

    def create_view(self, name: str, sql_text: str,
                    column_aliases: Optional[Sequence[str]] = None,
                    recursive: bool = False) -> ViewDefinition:
        key = name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError("relation %r already exists" % name)
        view = ViewDefinition(
            name, sql_text,
            list(column_aliases) if column_aliases else None,
            recursive=recursive,
        )
        self._views[key] = view
        return view

    def drop_view(self, name: str) -> None:
        key = name.lower()
        if key not in self._views:
            raise CatalogError("no view named %r" % name)
        del self._views[key]

    def view(self, name: str) -> ViewDefinition:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError("no view named %r" % name)

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def views(self) -> List[ViewDefinition]:
        return list(self._views.values())

    def has_relation(self, name: str) -> bool:
        return self.has_table(name) or self.has_view(name)

    # --------------------------------------------------------------- sites

    def set_table_site(self, name: str, site: Optional[str]) -> None:
        """Place a table at a named site (None = local) for the
        distributed cost model (Section 5.1)."""
        self.table(name)  # raises if unknown
        if site is None:
            self._sites.pop(name.lower(), None)
        else:
            self._sites[name.lower()] = site

    def add_replica(self, name: str, site: str) -> None:
        """Register an additional placement for a table. Replicas are
        used (in registration order) when the primary site is down."""
        self.table(name)  # raises if unknown
        replicas = self._replicas.setdefault(name.lower(), [])
        if site not in replicas:
            replicas.append(site)

    def replicas_for_table(self, name: str) -> List[str]:
        return list(self._replicas.get(name.lower(), ()))

    def site_for_table(self, name: str) -> Optional[str]:
        """The *effective* placement of a table.

        Returns the primary site while it is up; otherwise the first
        registered replica at a live site; otherwise None — the
        coordinator-local fallback copy (in this simulation every table
        has one, so a query can always degrade to a local plan).
        """
        primary = self._sites.get(name.lower())
        if primary is None or primary not in self._down_sites:
            return primary
        for replica in self._replicas.get(name.lower(), ()):
            if replica not in self._down_sites:
                return replica
        return None

    # ---------------------------------------------------------- site status

    def set_site_available(self, site: str, available: bool) -> bool:
        """Mark a site up or down; placement decisions (and therefore
        cached plans, whose inputs carry each table's effective site)
        react immediately. Returns True when the status actually
        changed."""
        changed = (
            site in self._down_sites if available
            else site not in self._down_sites
        )
        if not changed:
            return False
        if available:
            self._down_sites.discard(site)
        else:
            self._down_sites.add(site)
        return True

    def site_is_down(self, site: str) -> bool:
        return site in self._down_sites

    def down_sites(self) -> List[str]:
        return sorted(self._down_sites)

    # ------------------------------------------------------------ statistics

    def analyze(self, name: Optional[str] = None, num_buckets: int = 20,
                histogram_kind: str = "equi_depth") -> None:
        """(Re)build statistics for one table, or all tables if ``name``
        is omitted."""
        if self.analyze_listener is not None:
            self.analyze_listener(name, self.stats_snapshot(name))
        if name is not None:
            table = self.table(name)
            self._stats[name.lower()] = compute_table_stats(
                table, num_buckets, histogram_kind)
            return
        for key, table in self._tables.items():
            self._stats[key] = compute_table_stats(table, num_buckets,
                                                   histogram_kind)

    def stats(self, name: str) -> TableStats:
        """Statistics for a table, computing them on first request."""
        key = name.lower()
        if key not in self._stats:
            self.analyze(name)
        return self._stats[key]

    def has_stats(self, name: str) -> bool:
        return name.lower() in self._stats

    def stats_snapshot(self, name: Optional[str] = None) -> Dict:
        """The current stats entries for one table (or all tables).

        ``TableStats`` objects are replaced wholesale by analyze and
        never mutated in place, so a shallow copy of the mapping is a
        faithful restore point for :meth:`restore_stats`.
        """
        if name is None:
            return dict(self._stats)
        key = name.lower()
        return {key: self._stats[key]} if key in self._stats else {}

    def restore_stats(self, snapshot: Dict,
                      name: Optional[str] = None) -> None:
        """Reinstate a :meth:`stats_snapshot`. With ``name``, only that
        table's entry is replaced (or removed, if the snapshot lacks
        it); otherwise the whole mapping is restored."""
        if name is None:
            self._stats = dict(snapshot)
            return
        key = name.lower()
        if key in snapshot:
            self._stats[key] = snapshot[key]
        else:
            self._stats.pop(key, None)

    # ------------------------------------------- transaction/recovery hooks
    #
    # Structural re-installs used by transaction undo and WAL recovery:
    # they put back the very objects that were removed, so a plan built
    # before the removal reads the same inputs again and may be served.

    def install_table(self, table: Table,
                      stats: Optional[TableStats] = None,
                      site: Optional[str] = None) -> None:
        key = table.name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError("relation %r already exists" % table.name)
        table._mvcc = self.mvcc
        self._tables[key] = table
        if stats is not None:
            self._stats[key] = stats
        if site is not None:
            self._sites[key] = site

    def uninstall_table(self, name: str) -> None:
        key = name.lower()
        self._tables.pop(key, None)
        self._stats.pop(key, None)
        self._sites.pop(key, None)

    def install_view(self, view: ViewDefinition) -> None:
        key = view.name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError("relation %r already exists" % view.name)
        self._views[key] = view

    def uninstall_view(self, name: str) -> None:
        self._views.pop(name.lower(), None)

    def stats_entry(self, name: str) -> Optional[TableStats]:
        return self._stats.get(name.lower())

    def site_entry(self, name: str) -> Optional[str]:
        """The *registered* primary site (ignoring up/down status)."""
        return self._sites.get(name.lower())
