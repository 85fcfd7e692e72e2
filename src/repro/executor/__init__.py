"""Physical executor: runtime context, operators, plan lowering."""

from .lowering import lower
from .operators import Operator, bind_memberships
from .runtime import FilterSet, RuntimeContext

__all__ = [
    "FilterSet",
    "Operator",
    "RuntimeContext",
    "bind_memberships",
    "lower",
]
