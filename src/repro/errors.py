"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. The subtypes mirror the pipeline
stages: parsing, binding (name resolution), planning, and execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    #: id of the statement record (``db.querylog``, the event log)
    #: that ended with this error; set as the error leaves the engine
    query_id = None


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so callers can point at the source.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class BindError(ReproError):
    """A name (table, view, column, function) could not be resolved,
    or an expression is ill-typed for its context."""


class CatalogError(ReproError):
    """Catalog inconsistency: duplicate table, unknown relation, schema
    mismatch on load, and similar metadata problems."""


class SchemaError(CatalogError):
    """A value violates its column's declared dtype — the typed error
    for INSERT/UPDATE rows that do not fit the table's schema, and for
    dtype inference failures over untyped legacy data. Subclasses
    :class:`CatalogError`, so pre-existing handlers keep working.

    ``column`` names the offending column when known; ``dtype`` is the
    declared type's name (``"int"``, ``"float"``, ``"str"``,
    ``"bool"``).
    """

    def __init__(self, message: str, column: str = None,
                 dtype: str = None):
        super().__init__(message)
        self.column = column
        self.dtype = dtype


class PlanError(ReproError):
    """The optimizer could not produce a plan (e.g. no join method is
    applicable, or an internal invariant was violated)."""


class RecursiveViewError(PlanError):
    """A view or common table expression references itself in a way the
    engine cannot evaluate: an undeclared self-reference (use ``WITH
    RECURSIVE`` / ``CREATE RECURSIVE VIEW``), non-linear recursion, or a
    recursive definition outside the supported shape (base branches
    UNION one linear recursive branch). Also raised when the Figure-2
    magic rewriter is pointed at a recursive view — its rewrite happens
    inside the planner's costed fixpoint candidates instead.

    ``view_name`` carries the offending view/CTE name.
    """

    def __init__(self, message: str, view_name: str = ""):
        super().__init__(message)
        self.view_name = view_name


class ExecutionError(ReproError):
    """A runtime failure while executing a physical plan."""


class QueryTimeout(ExecutionError):
    """The query's deadline elapsed before execution finished.

    ``elapsed`` includes simulated network delay (latency spikes and
    retry backoff) on top of wall-clock time, so a fault schedule can
    deterministically push a query past its deadline.
    """

    def __init__(self, message: str, elapsed: float = 0.0,
                 timeout: float = 0.0):
        super().__init__(message)
        self.elapsed = elapsed
        self.timeout = timeout


class SiteUnavailable(ExecutionError):
    """A remote site could not be reached within the retry budget.

    Carries the ``site`` name so the coordinator can mark it down and
    re-optimize with a different placement.
    """

    def __init__(self, message: str, site=None, attempts: int = 0):
        super().__init__(message)
        self.site = site
        self.attempts = attempts


class ResourceExhausted(ExecutionError):
    """An operator's memory accounting exceeded the per-query budget."""

    def __init__(self, message: str, requested_bytes: float = 0.0,
                 budget_bytes: float = 0.0):
        super().__init__(message)
        self.requested_bytes = requested_bytes
        self.budget_bytes = budget_bytes


class FixpointLimitExceeded(ExecutionError):
    """A recursive query's semi-naive fixpoint did not converge within
    the configured ``max_fixpoint_iterations`` (see
    :class:`~repro.options.Options`) — almost always cyclic data under
    ``UNION ALL`` semantics, where each pass keeps producing rows.

    ``iterations`` is how many passes ran; ``limit`` the configured cap.
    """

    def __init__(self, message: str, iterations: int = 0, limit: int = 0):
        super().__init__(message)
        self.iterations = iterations
        self.limit = limit


class ParameterError(ExecutionError):
    """A prepared-statement parameter problem: wrong number of values,
    an unsupported value type, or executing with parameters unbound."""


class StatsError(ReproError):
    """Invalid statistics input (empty histograms, negative counts...)."""


class TransactionError(ReproError):
    """Misuse of the transaction API: BEGIN inside a transaction,
    COMMIT/ROLLBACK with none active, an unknown savepoint name, or a
    checkpoint attempted while a transaction holds uncommitted state."""


class TransactionAborted(TransactionError):
    """The current transaction hit an error and is aborted: every
    statement other than ROLLBACK (or ROLLBACK TO a savepoint) is
    refused until the transaction is rolled back.

    ``cause`` names the original error type that aborted the
    transaction, when known.
    """

    def __init__(self, message: str, cause: str = ""):
        super().__init__(message)
        self.cause = cause


class SerializationError(TransactionError):
    """A write-write conflict under snapshot isolation: the row this
    transaction tried to update or delete was already written by a
    concurrent transaction (first-committer-wins — the other
    transaction got there first). The losing transaction is aborted;
    retry it against a fresh snapshot.

    ``table`` names the relation the conflict was detected on.
    """

    def __init__(self, message: str, table: str = ""):
        super().__init__(message)
        self.table = table


class ProtocolError(ReproError):
    """A malformed client/server frame: bad length prefix, oversized
    frame, invalid JSON payload, or a request missing required fields.
    The server answers with a protocol error response (or drops the
    connection when the stream itself is unreadable); the client raises
    this type."""


class WalError(ReproError):
    """The write-ahead log is unreadable: bad magic, an impossible
    record length, or corruption *before* the final record (a torn
    tail, by contrast, is tolerated and silently discarded)."""
