"""Cost-based optimizer: System-R DP enumeration with Filter Joins."""

from .config import OptimizerConfig
from .cost import CostModel
from .parametric import (
    EquivalenceClass,
    ParametricInnerCoster,
    RestrictionMemo,
)
from .planner import PartialPlan, Planner, PlannerMetrics
from .plans import (
    AggregateNode,
    DistinctNode,
    FilterJoinNode,
    FilterNode,
    FilterSetScanNode,
    FunctionJoinNode,
    IndexScanNode,
    JoinMethod,
    JoinNode,
    LimitNode,
    MaterializeNode,
    NestedIterationNode,
    PlanNode,
    ProjectNode,
    RelabelNode,
    SeqScanNode,
    ShipNode,
    SortNode,
)
from .properties import ColumnInfo, RelProps, StatsEstimator

__all__ = [
    "AggregateNode",
    "ColumnInfo",
    "CostModel",
    "DistinctNode",
    "EquivalenceClass",
    "FilterJoinNode",
    "FilterNode",
    "FilterSetScanNode",
    "FunctionJoinNode",
    "IndexScanNode",
    "JoinMethod",
    "JoinNode",
    "LimitNode",
    "MaterializeNode",
    "NestedIterationNode",
    "OptimizerConfig",
    "ParametricInnerCoster",
    "PartialPlan",
    "PlanNode",
    "Planner",
    "PlannerMetrics",
    "ProjectNode",
    "RelProps",
    "RelabelNode",
    "RestrictionMemo",
    "SeqScanNode",
    "ShipNode",
    "SortNode",
    "StatsEstimator",
]
