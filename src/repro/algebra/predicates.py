"""Predicate classification utilities for join planning.

Given a block's conjunct list, the optimizer needs to know, for any subset
of relation aliases: which conjuncts are local filters on one relation,
which are join predicates connecting two sides, and which must wait until
more relations are joined. These helpers do that bookkeeping; aliases are
extracted from qualified column names ("E.did" -> "E").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..expr.nodes import ColumnRef, Comparison, Expr, is_equijoin


def alias_of(column_name: str) -> str:
    """The relation alias of a qualified column name."""
    return column_name.split(".", 1)[0]


def aliases_in(predicate: Expr) -> FrozenSet[str]:
    """The set of relation aliases a predicate references, derived once
    per node (expression nodes are immutable)."""
    refs = predicate.__dict__.get("_aliases")
    if refs is None:
        refs = predicate._aliases = frozenset(
            alias_of(name) for name in predicate.columns())
    return refs


def local_predicates(predicates: Sequence[Expr], alias: str) -> List[Expr]:
    """Conjuncts that touch only the given relation."""
    return [p for p in predicates if aliases_in(p) == frozenset((alias,))]


def equijoin_pairs(predicates: Sequence[Expr],
                   left: Set[str],
                   right: Set[str]) -> List[Tuple[ColumnRef, ColumnRef]]:
    """(left_column, right_column) pairs for equi-join conjuncts between
    the two alias sets, with the left set's column first."""
    pairs = []
    for pred in predicates:
        refs = aliases_in(pred)
        if not (is_equijoin(pred) and refs & left and refs & right):
            continue
        assert isinstance(pred, Comparison)
        lcol, rcol = pred.left, pred.right
        if alias_of(lcol.name) in right:
            lcol, rcol = rcol, lcol
        if alias_of(lcol.name) in left and alias_of(rcol.name) in right:
            pairs.append((lcol, rcol))
    return pairs


def equality_classes(predicates: Sequence[Expr]) -> List[Set[str]]:
    """Equivalence classes of columns connected by col = col conjuncts.

    Classic optimizers infer transitive equalities (E.did = D.did and
    E.did = V.did imply D.did = V.did); magic rewriting uses this to
    allow any member of the class to feed the filter set.
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for pred in predicates:
        if is_equijoin(pred):
            union(pred.left.name, pred.right.name)
    groups: Dict[str, Set[str]] = {}
    for column in parent:
        groups.setdefault(find(column), set()).add(column)
    return [members for members in groups.values() if len(members) > 1]


def connected_aliases(predicates: Sequence[Expr], start: str,
                      universe: Iterable[str]) -> Set[str]:
    """Aliases reachable from ``start`` through join predicates (the join
    graph's connected component), restricted to ``universe``."""
    universe = set(universe)
    edges: Dict[str, Set[str]] = {a: set() for a in universe}
    for pred in predicates:
        refs = [a for a in aliases_in(pred) if a in universe]
        for a in refs:
            for b in refs:
                if a != b:
                    edges[a].add(b)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbor in edges.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen
