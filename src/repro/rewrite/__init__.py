"""Magic-sets rewriting (SIPS-driven) over query blocks."""

from .magic import (
    MagicRewriting,
    RestrictedInner,
    bindable_columns,
    magic_rewrite,
    restricted_block,
)

__all__ = [
    "MagicRewriting",
    "RestrictedInner",
    "bindable_columns",
    "magic_rewrite",
    "restricted_block",
]
