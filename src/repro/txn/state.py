"""Logical database state as one JSON-able dict.

One serializer serves three masters: WAL *checkpoint* records embed
this snapshot, *recovery* rebuilds a database from it, and the crash
harness compares recovered-vs-oracle databases by fingerprinting it.
Using the same code for all three means "byte-identical committed
state" is checked against exactly what a checkpoint would persist —
rows, index definitions (and optionally contents), views, and the full
statistics objects (loading ignores an older checkpoint's "version").

Statistics are serialized as-is rather than recomputed on load:
staleness relative to the rows is observable semantic state (an
un-ANALYZEd insert must stay un-ANALYZEd after recovery).

Distributed placement (sites/replicas) is outside the transaction
scope — see docs/transactions.md — and is not captured here.
"""

from __future__ import annotations

import json
from typing import Optional

from ..stats.histogram import (
    Bucket,
    EquiDepthHistogram,
    EquiWidthHistogram,
    FrequencyHistogram,
)
from ..storage.catalog import ColumnStats, TableStats, ViewDefinition
from ..storage.schema import Column, DataType, Schema
from ..storage.table import Table

_HISTOGRAM_CLASSES = {
    "equi_width": EquiWidthHistogram,
    "equi_depth": EquiDepthHistogram,
}


def _histogram_to_dict(histogram) -> Optional[dict]:
    if histogram is None:
        return None
    kind = ("equi_depth" if isinstance(histogram, EquiDepthHistogram)
            else "equi_width")
    return {
        "class": kind,
        "total": histogram.total,
        "buckets": [
            [b.low, b.high, b.count, b.distinct]
            for b in histogram.buckets
        ],
    }


def _histogram_from_dict(data: Optional[dict]):
    if data is None:
        return None
    buckets = [Bucket(low, high, count, distinct)
               for low, high, count, distinct in data["buckets"]]
    return _HISTOGRAM_CLASSES[data["class"]](buckets, data["total"])


def _frequencies_to_dict(frequencies) -> Optional[dict]:
    if frequencies is None:
        return None
    # counts keys are column values (not necessarily strings), so they
    # travel as pairs; sorted for a canonical byte representation
    pairs = sorted(
        ([value, count] for value, count in frequencies.counts.items()),
        key=lambda pair: (type(pair[0]).__name__, repr(pair[0])),
    )
    return {"pairs": pairs, "total": frequencies.total}


def _frequencies_from_dict(data: Optional[dict]):
    if data is None:
        return None
    return FrequencyHistogram(
        {value: count for value, count in data["pairs"]}, data["total"]
    )


def _stats_to_dict(stats: TableStats) -> dict:
    return {
        "num_rows": stats.num_rows,
        "num_pages": stats.num_pages,
        "row_width": stats.row_width,
        "columns": {
            name: {
                "num_distinct": col.num_distinct,
                "min_value": col.min_value,
                "max_value": col.max_value,
                "null_fraction": col.null_fraction,
                "histogram": _histogram_to_dict(col.histogram),
                "frequencies": _frequencies_to_dict(col.frequencies),
            }
            for name, col in sorted(stats.columns.items())
        },
    }


def _stats_from_dict(data: dict) -> TableStats:
    stats = TableStats(
        num_rows=data["num_rows"],
        num_pages=data["num_pages"],
        row_width=data["row_width"],
    )
    for name, col in data["columns"].items():
        stats.columns[name] = ColumnStats(
            num_distinct=col["num_distinct"],
            min_value=col["min_value"],
            max_value=col["max_value"],
            null_fraction=col["null_fraction"],
            histogram=_histogram_from_dict(col["histogram"]),
            frequencies=_frequencies_from_dict(col["frequencies"]),
        )
    return stats


def _index_entries(index) -> list:
    """An index's exact contents, canonically ordered, for fingerprints."""
    if hasattr(index, "_buckets"):  # HashIndex
        return sorted(
            ([key, list(positions)]
             for key, positions in index._buckets.items()),
            key=lambda pair: (type(pair[0]).__name__, repr(pair[0])),
        )
    return [list(index._keys), list(index._positions)]  # SortedIndex


def state_dict(db, include_index_entries: bool = False) -> dict:
    """The database's full logical state as a JSON-able dict.

    ``include_index_entries=True`` adds each index's exact key/position
    contents — used by the crash harness to assert indexes (not just
    their definitions) are byte-identical after recovery.
    """
    tables = []
    for table in sorted(db.catalog.tables(), key=lambda t: t.name.lower()):
        entry = {
            "name": table.name,
            "columns": [
                [col.name, col.dtype.value, col.width]
                for col in table.schema
            ],
            "rows": [list(row) for row in table.rows],
            "clustered_on": table.clustered_on,
            "indexes": sorted(
                [column, index.kind]
                for column, index in table.indexes.items()
            ),
        }
        if include_index_entries:
            entry["index_entries"] = {
                column: _index_entries(index)
                for column, index in sorted(table.indexes.items())
            }
        tables.append(entry)
    views = [
        {
            "name": view.name,
            "sql_text": view.sql_text,
            "column_aliases": view.column_aliases,
            "recursive": view.recursive,
        }
        for view in sorted(db.catalog.views(), key=lambda v: v.name.lower())
    ]
    stats = {
        table.name.lower(): _stats_to_dict(
            db.catalog.stats_entry(table.name))
        for table in db.catalog.tables()
        if db.catalog.stats_entry(table.name) is not None
    }
    return {
        "tables": tables,
        "views": views,
        "stats": stats,
    }


def load_state(db, state: dict) -> None:
    """Rebuild a *fresh* database's catalog from a :func:`state_dict`.

    Installs tables (rows, then indexes — bulk loading produces the
    same index contents as the original incremental inserts), views,
    and the statistics objects exactly as serialized.
    """
    catalog = db.catalog
    for entry in state["tables"]:
        schema = Schema(
            Column(name, DataType(dtype), width)
            for name, dtype, width in entry["columns"]
        )
        table = Table(entry["name"], schema)
        for row in entry["rows"]:
            table.insert(row)
        for column, kind in entry["indexes"]:
            table.create_index(column, kind)
        table.clustered_on = entry["clustered_on"]
        catalog.install_table(table)
    for view in state["views"]:
        catalog.install_view(ViewDefinition(
            view["name"], view["sql_text"], view["column_aliases"],
            recursive=view["recursive"],
        ))
    catalog.restore_stats({
        name: _stats_from_dict(data)
        for name, data in state["stats"].items()
    })


def fingerprint(db) -> str:
    """A canonical byte representation of the full logical state
    (rows, index contents, stats) — two databases are
    committed-state-identical iff their fingerprints match."""
    return json.dumps(state_dict(db, include_index_entries=True),
                      sort_keys=True)
