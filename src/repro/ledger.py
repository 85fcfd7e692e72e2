"""Cost accounting shared by the executor (measured) and optimizer (estimated).

The paper's argument is entirely about *relative plan cost*, so rather than
timing wall-clock execution we charge every physical operator's work to a
:class:`CostLedger` in named units:

- ``page_reads`` / ``page_writes``: simulated buffer-pool page I/O
- ``tuple_cpu``: per-tuple processing steps (comparisons, hashing, copying)
- ``net_msgs`` / ``net_bytes``: distributed shipping (Section 5.1)
- ``fn_invocations``: user-defined-relation calls (Section 5.2)

A :class:`CostParams` instance folds the unit counts into a single scalar,
exactly the way the optimizer's estimates do, so experiments can print
estimate vs. measured per component (Table 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostParams:
    """Weights that convert unit counts into one scalar cost.

    The defaults treat one page I/O as the unit of cost, a tuple-CPU step
    as 1/200 of a page I/O, and network entirely free (the centralized
    setting). Distributed experiments raise ``net_byte_weight`` /
    ``net_msg_weight`` to explore the SDD-1 vs. System R* regimes.
    """

    page_read_weight: float = 1.0
    page_write_weight: float = 1.0
    tuple_cpu_weight: float = 0.005
    net_msg_weight: float = 0.0
    net_byte_weight: float = 0.0
    fn_invocation_weight: float = 1.0

    def scalar(self, counts: "CostLedger") -> float:
        """Fold a ledger's unit counts into one scalar cost."""
        return (
            self.page_read_weight * counts.page_reads
            + self.page_write_weight * counts.page_writes
            + self.tuple_cpu_weight * counts.tuple_cpu
            + self.net_msg_weight * counts.net_msgs
            + self.net_byte_weight * counts.net_bytes
            + self.fn_invocation_weight * counts.fn_invocations
        )


@dataclass
class CostLedger:
    """Accumulates measured (or estimated) work in named units.

    Ledgers support ``+`` so sub-plan charges compose, and ``snapshot`` /
    ``delta`` so an experiment can isolate the work done by one phase.

    ``sink`` is a side slot, not a field: while an operator runs, it
    points the statement's ledger at itself (an operator carries the
    six fields too), and every charge is added there as well (see
    ``Operator.batches``).
    """

    page_reads: float = 0.0
    page_writes: float = 0.0
    tuple_cpu: float = 0.0
    net_msgs: float = 0.0
    net_bytes: float = 0.0
    fn_invocations: float = 0.0

    #: the running operator (unannotated: not a field)
    sink = None

    def charge_reads(self, pages: float) -> None:
        self.page_reads += pages
        sink = self.sink
        if sink is not None:
            sink.page_reads += pages

    def charge_writes(self, pages: float) -> None:
        self.page_writes += pages
        sink = self.sink
        if sink is not None:
            sink.page_writes += pages

    def charge_cpu(self, steps: float) -> None:
        self.tuple_cpu += steps
        sink = self.sink
        if sink is not None:
            sink.tuple_cpu += steps

    def charge_network(self, messages: float, nbytes: float) -> None:
        """``messages`` network messages carrying ``nbytes`` in total."""
        self.net_msgs += messages
        self.net_bytes += nbytes
        sink = self.sink
        if sink is not None:
            sink.net_msgs += messages
            sink.net_bytes += nbytes

    def charge_message(self, nbytes: float) -> None:
        """One network message carrying ``nbytes`` of payload."""
        self.charge_network(1, nbytes)

    def charge_invocation(self, count: float = 1.0) -> None:
        self.fn_invocations += count
        sink = self.sink
        if sink is not None:
            sink.fn_invocations += count

    # The six fields are spelled out below instead of looped over with
    # dataclasses.fields(): the planner snapshots and merges ledgers
    # hundreds of times per statement.

    def snapshot(self) -> "CostLedger":
        """A frozen copy of the current counts."""
        return CostLedger(self.page_reads, self.page_writes, self.tuple_cpu,
                          self.net_msgs, self.net_bytes, self.fn_invocations)

    def delta(self, since: "CostLedger") -> "CostLedger":
        """Counts accumulated since ``since`` was snapshotted."""
        return CostLedger(
            self.page_reads - since.page_reads,
            self.page_writes - since.page_writes,
            self.tuple_cpu - since.tuple_cpu,
            self.net_msgs - since.net_msgs,
            self.net_bytes - since.net_bytes,
            self.fn_invocations - since.fn_invocations,
        )

    def merge(self, other: "CostLedger") -> None:
        """Add another ledger's counts into this one, in place."""
        self.page_reads += other.page_reads
        self.page_writes += other.page_writes
        self.tuple_cpu += other.tuple_cpu
        self.net_msgs += other.net_msgs
        self.net_bytes += other.net_bytes
        self.fn_invocations += other.fn_invocations

    def scaled(self, factor: float) -> "CostLedger":
        """A copy with every count multiplied by ``factor``."""
        return CostLedger(
            self.page_reads * factor, self.page_writes * factor,
            self.tuple_cpu * factor, self.net_msgs * factor,
            self.net_bytes * factor, self.fn_invocations * factor,
        )

    def __add__(self, other: "CostLedger") -> "CostLedger":
        result = self.snapshot()
        result.merge(other)
        return result

    def total(self, params: CostParams = None) -> float:
        """Scalar cost under ``params`` (default weights if omitted)."""
        return (params or CostParams()).scalar(self)

    def reset(self) -> None:
        self.page_reads = self.page_writes = self.tuple_cpu = 0.0
        self.net_msgs = self.net_bytes = self.fn_invocations = 0.0

    def as_dict(self) -> dict:
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "tuple_cpu": self.tuple_cpu,
            "net_msgs": self.net_msgs,
            "net_bytes": self.net_bytes,
            "fn_invocations": self.fn_invocations,
        }

    def __str__(self) -> str:
        parts = [
            "%s=%.1f" % (name, value)
            for name, value in self.as_dict().items()
            if value
        ]
        return "CostLedger(%s)" % ", ".join(parts) if parts else "CostLedger(empty)"
