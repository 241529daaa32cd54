"""The group table — the logical half of the search's Cascades split.

A *group* stands for one logical node of the searched tree and holds what
is a property of that node's **result**, whatever physical plan ends up
producing it: output schema, the FDs and attribute equivalences valid on
the node's own subtree, and the FD-reduced, equivalence-canonical form
of every sort order requested of it.  All of it is derived once, in one
bottom-up pass (:func:`~repro.logical.algebra.derive_schema`,
:func:`~repro.logical.algebra.equivalence_pairs` and
:func:`~repro.logical.fds.node_fds` per node, each fed its children's
results), instead of once per goal by re-walking the subtree.

Groups are interned on ``(node type, child group ids, the node's own
fields)``, so structurally equal subtrees — identical union branches,
self-joins — share one group and one memo slot per order, exactly as
when the memo was keyed on the (recursively hashed) subtree itself.  The
per-goal lookup is by node *identity*; the table keeps every node it has
seen alive, so an ``id()`` can never be reused while it is a key.
Nothing here caches a hash on the logical tree, so pickled or copied
trees carry no process-specific state.
"""

from __future__ import annotations

from dataclasses import fields

from ...core.favorable import FavorableOrders
from ...core.sort_order import AttributeEquivalence, SortOrder
from ...logical.algebra import (
    Annotator,
    LogicalExpr,
    derive_schema,
    equivalence_pairs,
)
from ...logical.fds import node_fds
from ...storage.catalog import Catalog

__all__ = ["Group", "GroupTable"]


class Group:
    """Logical properties of one node of the searched tree."""

    __slots__ = ("gid", "expr", "children", "schema", "pairs", "eq", "fds",
                 "_goals")

    def __init__(self, gid: int, expr: LogicalExpr,
                 children: tuple["Group", ...], catalog: Catalog) -> None:
        self.gid = gid
        self.expr = expr
        self.children = children
        schemas = [c.schema for c in children]
        self.schema = derive_schema(catalog, expr, schemas)
        #: Subtree-scoped facts: a sibling union branch's join equality or
        #: constant filter says nothing about this node's rows, so goals
        #: of this group are reduced and matched with these only.
        self.pairs = equivalence_pairs(
            expr, [(c.pairs, c.schema) for c in children])
        self.eq = AttributeEquivalence.of(self.pairs)
        self.fds = node_fds(catalog, expr, [c.fds for c in children], schemas)
        self._goals: dict[SortOrder, tuple[SortOrder, tuple]] = {}

    def goal(self, required: SortOrder) -> tuple[SortOrder, tuple]:
        """``(FD-reduced order, memo key)`` of requesting *required* from
        this group.  The key canonicalizes attributes with this subtree's
        equivalences only: the whole-query classes may equate attributes
        via a sibling branch's join, and collapsing two genuinely
        different goals into one memo slot would serve one branch's plan
        (and its order guarantee) for the other's requirement."""
        hit = self._goals.get(required)
        if hit is None:
            reduced = self.fds.reduce_order(required)
            hit = self._goals[required] = self._goals[reduced] = (
                reduced, (self.gid, tuple(map(self.eq.canonical, reduced))))
        return hit


class GroupTable:
    """Groups of one searched tree, plus the whole-query annotations
    (equivalence classes, used attributes, favorable orders) that go with
    it — everything about the tree that does not depend on the order
    strategy, so phase-2 refinement reuses it as is."""

    def __init__(self, catalog: Catalog, root: LogicalExpr) -> None:
        self.catalog = catalog
        self._interned: dict[tuple, Group] = {}
        #: ``id(node) -> (node, group)``; holding the node pins its id.
        self._by_id: dict[int, tuple[LogicalExpr, Group]] = {}
        self.root = self.of(root)
        self.annotator = Annotator(catalog, root)
        self.favorable = FavorableOrders(catalog, self.annotator)

    def of(self, expr: LogicalExpr) -> Group:
        """The group of *expr* (children first, so a tree is entered in
        one bottom-up pass; nodes outside the original tree join on
        first request)."""
        hit = self._by_id.get(id(expr))
        if hit is not None:
            return hit[1]
        children = tuple(map(self.of, expr.children))
        own = tuple(value for value in (getattr(expr, f.name)
                                        for f in fields(expr))
                    if not isinstance(value, LogicalExpr))
        key = (type(expr), tuple(c.gid for c in children), own)
        group = self._interned.get(key)
        if group is None:
            group = self._interned[key] = Group(
                len(self._interned), expr, children, self.catalog)
        self._by_id[id(expr)] = (expr, group)
        return group
