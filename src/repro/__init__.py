"""repro — Filter Joins: cost-based optimization for magic sets.

A from-scratch reproduction of Seshadri, Hellerstein & Ramakrishnan's
"Filter Joins: Cost-Based Optimization for Magic Sets" (TR #1273 / the
SIGMOD '96 "Cost-Based Optimization for Magic" line of work): an embedded
relational engine whose System-R optimizer treats magic-sets rewriting,
semi-joins, Bloom joins, and consecutive UDF invocation as one join
algorithm — the Filter Join — chosen purely by cost.

Quickstart::

    import repro

    db = repro.connect()
    db.execute_script(open("schema.sql").read())
    db.analyze()
    result = db.sql("SELECT ... FROM Emp E, Dept D, DepAvgSal V WHERE ...")

Everything an application needs is exported here — :func:`connect`,
:class:`Options`, :class:`QueryResult`, and the error taxonomy rooted at
:class:`ReproError`. Deep module paths (``repro.executor...``,
``repro.optimizer...``) are implementation detail and may move between
releases; this module's ``__all__`` is the stable surface.

See README.md for the full tour and DESIGN.md for the architecture.
"""

from typing import Optional, Sequence

from .database import Database, PreparedStatement, QueryResult, Session
from .options import BUILTIN, Options
from .errors import (
    BindError,
    CatalogError,
    ExecutionError,
    FixpointLimitExceeded,
    ParameterError,
    PlanError,
    ProtocolError,
    QueryTimeout,
    RecursiveViewError,
    ReproError,
    ResourceExhausted,
    SchemaError,
    SerializationError,
    SiteUnavailable,
    SqlSyntaxError,
    StatsError,
    TransactionAborted,
    TransactionError,
    WalError,
)
from .ledger import CostLedger, CostParams
from .obs import (
    AdaptivePolicy,
    DriftReport,
    EventLog,
    MetricsRegistry,
    OptimizerTrace,
    QueryLog,
    QueryTrace,
    Span,
    WhyNotReport,
)
from .optimizer.config import OptimizerConfig
from .plancache import PlanCache
from .storage.schema import Column, DataType, Schema
from .txn import MemoryStorage, WriteAheadLog, recover

__version__ = "1.0.0"


def connect(*, sites: Optional[Sequence[str]] = None,
            config: Optional[OptimizerConfig] = None,
            plan_cache_size: Optional[int] = None,
            **options) -> Database:
    """Open an embedded database — the front door of the library.

    With no arguments this is a local single-site engine. Passing
    ``sites=["tokyo", "paris"]`` instead returns a
    :class:`~repro.distributed.DistributedDatabase` with those sites
    registered and network costs enabled in the cost model (place
    tables with ``db.create_table(..., site="tokyo")``).

    Any :class:`Options` field may be given as a keyword and becomes
    the connection's default (equivalent to calling
    :meth:`Database.configure` immediately)::

        db = repro.connect(use_cache=False, timeout=5.0)

    ``config`` overrides the optimizer configuration;
    ``plan_cache_size`` bounds the plan cache.
    """
    if sites is not None:
        from .distributed.database import DistributedDatabase

        db: Database = DistributedDatabase(
            config=config, plan_cache_size=plan_cache_size)
        for name in sites:
            db.add_site(name)
    elif plan_cache_size is not None:
        db = Database(config, plan_cache_size)
    else:
        db = Database(config)
    if options:
        db.configure(**options)
    return db


__all__ = [
    "AdaptivePolicy",
    "BindError",
    "CatalogError",
    "Column",
    "CostLedger",
    "CostParams",
    "DataType",
    "Database",
    "DriftReport",
    "EventLog",
    "ExecutionError",
    "FixpointLimitExceeded",
    "MemoryStorage",
    "MetricsRegistry",
    "OptimizerConfig",
    "OptimizerTrace",
    "Options",
    "ParameterError",
    "PlanCache",
    "PlanError",
    "PreparedStatement",
    "ProtocolError",
    "QueryLog",
    "QueryResult",
    "QueryTimeout",
    "QueryTrace",
    "RecursiveViewError",
    "ReproError",
    "ResourceExhausted",
    "Schema",
    "SchemaError",
    "SerializationError",
    "Session",
    "Span",
    "SiteUnavailable",
    "SqlSyntaxError",
    "StatsError",
    "TransactionAborted",
    "TransactionError",
    "WalError",
    "WhyNotReport",
    "WriteAheadLog",
    "__version__",
    "connect",
    "recover",
]
