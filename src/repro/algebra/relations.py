"""Relation references: the FROM-list entries of a query block.

The paper's unifying idea is the *virtual relation*: anything that can be
joined but is not a locally materialized table — a view or table
expression, a remote table in a distributed database, or a user-defined
function. Each FROM-list entry is a :class:`RelationRef` whose ``kind``
tells the optimizer which join methods apply:

- ``stored``    — a local (or remote, if ``site`` is set) base table
- ``view``      — a virtual relation defined by a :class:`QueryBlock`
- ``function``  — a user-defined relation (see :mod:`repro.udf`)
- ``recursive`` — a virtual relation defined by a fixpoint (``WITH
  RECURSIVE`` / ``CREATE RECURSIVE VIEW``)

Every ref exposes an alias-qualified output schema; all predicates in the
enclosing block are written over those qualified names.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import BindError
from ..storage.schema import Schema
from ..storage.table import Table


class RelationRef:
    """Base class for FROM-list entries."""

    kind = "abstract"

    def __init__(self, alias: str):
        if not alias:
            raise BindError("relation reference requires an alias")
        self.alias = alias
        self._output_schema: Optional[Schema] = None

    @property
    def base_schema(self) -> Schema:
        """Output schema with unqualified column names."""
        raise NotImplementedError

    @property
    def output_schema(self) -> Schema:
        """Output schema qualified by this reference's alias (built on
        first access: alias and base schema are fixed at construction)."""
        if self._output_schema is None:
            self._output_schema = self.base_schema.qualified(self.alias)
        return self._output_schema

    @property
    def is_virtual(self) -> bool:
        """True when this relation is not a locally materialized table."""
        return True

    def display_name(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(%s AS %s)" % (
            type(self).__name__, self.display_name(), self.alias,
        )


class StoredRelation(RelationRef):
    """A base table, locally stored or at a remote site.

    ``site`` of ``None`` means the local/coordinator site; a non-None site
    makes this a *remote* stored relation, which the distributed cost
    model charges shipping for (Section 5.1 of the paper).
    """

    kind = "stored"

    def __init__(self, alias: str, table: Table, site: Optional[str] = None):
        super().__init__(alias)
        self.table = table
        self.site = site

    @property
    def base_schema(self) -> Schema:
        return self.table.schema

    @property
    def is_virtual(self) -> bool:
        return self.site is not None

    def display_name(self) -> str:
        if self.site is not None:
            return "%s@%s" % (self.table.name, self.site)
        return self.table.name


class FilterSetRelation(RelationRef):
    """The filter ("magic") set, used as a relation inside a restricted
    view body.

    The filter set's contents are not known until run time: the executor
    binds ``param_id`` to a materialized set of distinct join-column
    values produced from the production set. The optimizer costs it
    through the parametric approximation of Section 4.2, parameterized by
    an *assumed cardinality* that equivalence classes vary.
    """

    kind = "filterset"

    def __init__(self, alias: str, schema: Schema, param_id: str,
                 assumed_rows: float = 1.0):
        super().__init__(alias)
        self._schema = schema
        self.param_id = param_id
        self.assumed_rows = assumed_rows

    @property
    def base_schema(self) -> Schema:
        return self._schema

    def with_assumed_rows(self, rows: float) -> "FilterSetRelation":
        return FilterSetRelation(self.alias, self._schema, self.param_id, rows)

    def display_name(self) -> str:
        return "<filter:%s>" % self.param_id


class RecursiveRelation(RelationRef):
    """A recursive virtual relation: the least fixpoint of base branches
    UNION [ALL] one linear recursive branch.

    The binder has already rewritten the recursive branch's
    self-reference into a :class:`FilterSetRelation` carrying
    ``delta_param``, so the branch doubles as the semi-naive *template*:
    each fixpoint pass binds the previous iteration's delta to
    ``delta_param`` and re-evaluates the template. The optimizer plans
    the template per candidate (full fixpoint vs. magic-restricted) by
    substituting an assumed delta cardinality.

    ``distinct`` is True for UNION semantics (set fixpoint, guaranteed
    to terminate) and False for UNION ALL (bag semantics, guarded by
    ``max_fixpoint_iterations`` on cyclic data).
    """

    kind = "recursive"

    def __init__(self, alias: str, view_name: str, base_blocks,
                 recursive_block, delta_param: str, schema: Schema,
                 distinct: bool = True):
        super().__init__(alias)
        self.view_name = view_name
        self.base_blocks = list(base_blocks)
        self.recursive_block = recursive_block
        self.delta_param = delta_param
        self._schema = schema
        self.distinct = distinct
        self.site = None  # the fixpoint always runs at the coordinator

    @property
    def base_schema(self) -> Schema:
        return self._schema

    def display_name(self) -> str:
        return "<recursive:%s>" % self.view_name


class VirtualRelation(RelationRef):
    """A view or table expression: a query block used as a relation.

    The block is the view's *definition*; it is not planned until the
    optimizer chooses how to evaluate it (full computation, correlated
    iteration, or a filter join that restricts it with a filter set).
    """

    kind = "view"

    def __init__(self, alias: str, view_name: str, block,
                 column_aliases: Optional[List[str]] = None,
                 site: Optional[str] = None,
                 catalog_name: Optional[str] = None,
                 input_names: Tuple[str, ...] = ()):
        super().__init__(alias)
        self.view_name = view_name
        # The catalog view this reference was expanded from, when its
        # body is a function of the catalog alone (see the binder).
        # CTEs and inline subqueries have a name only within their
        # statement, so results keyed by it must not outlive that.
        self.catalog_name = catalog_name
        # the catalog names the binder resolved for this view and its
        # body, sorted: what a memo entry for it is tagged with
        self.input_names = input_names
        self.block = block
        self.column_aliases = list(column_aliases) if column_aliases else None
        self.site = site
        self._base_schema: Optional[Schema] = None

    @property
    def base_schema(self) -> Schema:
        if self._base_schema is None:
            schema = self.block.output_schema()
            if self.column_aliases is not None:
                if len(self.column_aliases) != len(schema):
                    raise BindError(
                        "view %s declares %d columns but its query produces %d"
                        % (self.view_name, len(self.column_aliases), len(schema))
                    )
                schema = Schema(
                    col.renamed(name)
                    for col, name in zip(schema.columns, self.column_aliases)
                )
            self._base_schema = schema
        return self._base_schema

    def display_name(self) -> str:
        return self.view_name
