"""Per-operator cost formulas.

Each method returns a :class:`~repro.ledger.CostLedger` of estimated unit
counts for one operation; the planner sums ledgers over a plan and folds
them to a scalar with the configured :class:`CostParams`. The formulas
deliberately mirror, unit for unit, what the executor's operators charge
at run time, so experiment C7 can compare estimated vs. measured
components directly.

All sizes are in *pages* under the same page model the storage layer uses
(:func:`repro.storage.table.pages_for`).
"""

from __future__ import annotations

import math

from ..ledger import CostLedger, CostParams
from ..stats.estimator import yao_blocks
from ..storage.table import pages_for
from .config import OptimizerConfig


class CostModel:
    """Estimated unit-cost formulas, parameterized by the optimizer config."""

    def __init__(self, config: OptimizerConfig):
        self.config = config
        self.params: CostParams = config.cost_params
        self.memory_pages = config.memory_pages
        #: ledger -> scalar cost under the config's weights (the fold
        #: every candidate's cost goes through, bound once)
        self.scalar = self.params.scalar

    # ------------------------------------------------------------- helpers

    pages = staticmethod(pages_for)

    def fits_in_memory(self, pages: float) -> bool:
        return pages <= self.memory_pages

    # ---------------------------------------------------------------- scans

    def seq_scan(self, table_pages: float, table_rows: float) -> CostLedger:
        """Full scan: read every page, touch every tuple."""
        out = CostLedger()
        out.charge_reads(max(1.0, table_pages))
        out.charge_cpu(table_rows)
        return out

    def index_probe(self, table_rows: float, table_pages: float,
                    matches: float, clustered: bool = False,
                    row_width: int = 16) -> CostLedger:
        """One equality probe: one index page plus data pages.

        Unclustered: Yao-scattered pages. Clustered: the matches are
        physically contiguous, so only ceil(matches/tuples-per-page)
        pages are touched.
        """
        out = CostLedger()
        if clustered:
            data_pages = self.pages(max(matches, 0.0), row_width)
        else:
            data_pages = yao_blocks(
                max(int(table_rows), 1), max(int(table_pages), 1),
                int(math.ceil(max(matches, 0.0))),
            )
        out.charge_reads(1.0 + data_pages)
        out.charge_cpu(max(matches, 0.0) + 1.0)
        return out

    def filter_rows(self, rows_in: float) -> CostLedger:
        out = CostLedger()
        out.charge_cpu(rows_in)
        return out

    def project_rows(self, rows: float) -> CostLedger:
        out = CostLedger()
        out.charge_cpu(rows)
        return out

    # ------------------------------------------------------ materialization

    def materialize(self, rows: float, width: int) -> CostLedger:
        """Build a temp: CPU per row; page writes only when it spills."""
        out = CostLedger()
        out.charge_cpu(rows)
        temp_pages = self.pages(rows, width)
        if not self.fits_in_memory(temp_pages):
            out.charge_writes(temp_pages)
        return out

    def rescan(self, rows: float, width: int) -> CostLedger:
        """Re-read a previously materialized temp."""
        out = CostLedger()
        out.charge_cpu(rows)
        temp_pages = self.pages(rows, width)
        if not self.fits_in_memory(temp_pages):
            out.charge_reads(temp_pages)
        return out

    # ------------------------------------------------------------- sorting

    def sort(self, rows: float, width: int) -> CostLedger:
        """In-memory sort, plus external merge passes when spilled."""
        out = CostLedger()
        if rows > 1:
            out.charge_cpu(rows * math.log2(rows))
        sort_pages = self.pages(rows, width)
        if not self.fits_in_memory(sort_pages):
            fan_in = max(2, self.memory_pages - 1)
            runs = sort_pages / self.memory_pages
            passes = max(1, math.ceil(math.log(max(runs, 2), fan_in)))
            out.charge_writes(sort_pages * passes)
            out.charge_reads(sort_pages * passes)
        return out

    def dedup(self, rows_in: float, sorted_input: bool = False) -> CostLedger:
        """Distinct projection: hash dedup, cheaper over sorted input.

        The paper's ProjCost_F notes sortedness as the relevant
        "interesting" property; a sorted input needs only adjacent
        comparisons.
        """
        out = CostLedger()
        out.charge_cpu(rows_in * (0.2 if sorted_input else 1.0))
        return out

    # ---------------------------------------------------------------- joins

    def hash_join(self, build_rows: float, build_width: int,
                  probe_rows: float, out_rows: float) -> CostLedger:
        """Classic/Grace hash join: extra partitioning I/O when the build
        side exceeds memory."""
        out = CostLedger()
        out.charge_cpu(build_rows + probe_rows + out_rows)
        build_pages = self.pages(build_rows, build_width)
        if not self.fits_in_memory(build_pages):
            probe_pages = self.pages(probe_rows, build_width)
            out.charge_writes(build_pages + probe_pages)
            out.charge_reads(build_pages + probe_pages)
        return out

    def merge_join(self, left_rows: float, right_rows: float,
                   out_rows: float) -> CostLedger:
        """Merge phase only; sorting is charged separately when needed."""
        out = CostLedger()
        out.charge_cpu(left_rows + right_rows + out_rows)
        return out

    def block_nested_loops(self, outer_rows: float, outer_width: int,
                           inner_rows: float, inner_width: int,
                           out_rows: float) -> CostLedger:
        """Block NLJ over a materialized inner temp.

        The inner is rescanned once per outer block; a spilled inner pays
        page reads per rescan.
        """
        out = CostLedger()
        outer_pages = self.pages(outer_rows, outer_width)
        block_pages = max(1, self.memory_pages - 2)
        blocks = max(1, math.ceil(outer_pages / block_pages))
        inner_pages = self.pages(inner_rows, inner_width)
        if not self.fits_in_memory(inner_pages):
            out.charge_reads(inner_pages * blocks)
            out.charge_cpu(inner_rows * blocks)
        else:
            out.charge_cpu(inner_rows * blocks)
        out.charge_cpu(outer_rows * inner_rows)  # predicate evaluations
        out.charge_cpu(out_rows)
        return out

    def index_nested_loops(self, outer_rows: float, inner_table_rows: float,
                           inner_table_pages: float,
                           matches_per_probe: float,
                           out_rows: float, clustered: bool = False,
                           row_width: int = 16) -> CostLedger:
        out = CostLedger()
        probe = self.index_probe(
            inner_table_rows, inner_table_pages, matches_per_probe,
            clustered=clustered, row_width=row_width,
        )
        out.charge_reads(probe.page_reads * outer_rows)
        out.charge_cpu(probe.tuple_cpu * outer_rows)
        out.charge_cpu(out_rows)
        return out

    # ----------------------------------------------------------- aggregates

    def hash_aggregate(self, rows_in: float, groups: float) -> CostLedger:
        out = CostLedger()
        out.charge_cpu(rows_in + groups)
        return out

    # ---------------------------------------------------------- distributed

    def ship(self, rows: float, width: int) -> CostLedger:
        """Ship rows between sites: one message per payload chunk."""
        out = CostLedger()
        nbytes = max(0.0, rows) * width
        messages = max(1, math.ceil(nbytes / self.config.message_payload_bytes))
        out.net_msgs += messages
        out.net_bytes += nbytes
        out.charge_cpu(rows)  # marshalling
        return out

    def ship_bloom(self) -> CostLedger:
        """Ship a fixed-size Bloom filter."""
        out = CostLedger()
        out.charge_message(self.config.bloom_bits / 8.0)
        return out

    # ------------------------------------------------------------ functions

    def function_invocations(self, count: float, cost_per_call: float,
                             consecutive: bool = False,
                             locality_factor: float = 1.0) -> CostLedger:
        """UDF invocation cost; consecutive (filter-join) invocation gets
        the locality discount of Section 5.2."""
        out = CostLedger()
        factor = locality_factor if consecutive else 1.0
        out.charge_invocation(count * cost_per_call * factor)
        return out

    # -------------------------------------------------------- bloom filters

    def bloom_build(self, rows: float) -> CostLedger:
        out = CostLedger()
        out.charge_cpu(rows)
        return out

    def bloom_probe(self, rows: float) -> CostLedger:
        out = CostLedger()
        out.charge_cpu(rows * 0.5)  # cheaper than a hash-table probe
        return out

    def bloom_false_positive_rate(self, distinct_keys: float) -> float:
        """Standard FPR for the configured bit size with k=optimal hashes.

        Approximated as (1 - e^{-kn/m})^k with k derived from m/n.
        """
        if distinct_keys <= 0:
            return 0.0
        m = float(self.config.bloom_bits)
        n = distinct_keys
        k = max(1.0, round(m / n * math.log(2))) if n > 0 else 1.0
        return (1.0 - math.exp(-k * n / m)) ** k
