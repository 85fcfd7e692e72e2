"""Logical algebra: relation references, query blocks, predicate tools."""

from .block import QueryBlock, SelectItem
from .predicates import (
    alias_of,
    aliases_in,
    connected_aliases,
    equijoin_pairs,
    local_predicates,
)
from .relations import (
    FilterSetRelation,
    RelationRef,
    StoredRelation,
    VirtualRelation,
)

__all__ = [
    "FilterSetRelation",
    "QueryBlock",
    "RelationRef",
    "SelectItem",
    "StoredRelation",
    "VirtualRelation",
    "alias_of",
    "aliases_in",
    "connected_aliases",
    "equijoin_pairs",
    "local_predicates",
]
