"""The group table — the logical half of the search's Cascades split.

A *group* stands for one logical node of the searched tree and holds what
is a property of that node's **result**, whatever physical plan ends up
producing it: output schema, the FDs and attribute equivalences valid on
the node's own subtree, and the FD-reduced, equivalence-canonical form
of every sort order requested of it.  All of it is derived once, in one
bottom-up pass (:func:`~repro.logical.algebra.derive_schema`,
:func:`~repro.logical.algebra.equivalence_pairs` and
:func:`~repro.logical.fds.node_fds` per node, each fed its children's
results), instead of once per goal by re-walking the subtree.  The
table is the only place a searched tree's logical facts are derived:
the whole query's are the root group's.

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
    BaseRelation,
    Compute,
    GroupBy,
    Join,
    LogicalExpr,
    OrderBy,
    Project,
    Select,
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
            roots = self.eq.roots
            hit = self._goals[required] = self._goals[reduced] = (
                reduced, (self.gid, tuple(map(roots.get, reduced, reduced))))
        return hit


class GroupTable:
    """Groups of one searched tree, plus what is read off it as a whole:
    the root group's facts are the whole query's (its ``eq`` the
    equivalence classes interesting orders and prices use), the columns
    each base table must deliver, and the favorable orders — everything
    about the tree that does not depend on the order strategy, so phase-2
    refinement reuses it as is."""

    def __init__(self, catalog: Catalog, root: LogicalExpr) -> None:
        self.catalog = catalog
        self._interned: dict[tuple, Group] = {}
        #: ``id(node) -> (node, group)``; holding the node pins its id.
        self._by_id: dict[int, tuple[LogicalExpr, Group]] = {}
        self.root = self.of(root)
        self._used = self._used_attrs(root)
        #: ``afm`` per group id, filled through :attr:`favorable`.
        self.afm_memo: dict[int, tuple[SortOrder, ...]] = {}

    @property
    def favorable(self) -> FavorableOrders:
        """The favorable orders of this tree's nodes, memoised in
        :attr:`afm_memo`.  A view made per read: the table holding one
        that holds the table would be a reference cycle, which keeps the
        catalog alive until the cyclic collector runs."""
        return FavorableOrders(self.catalog, self)

    def _used_attrs(self, root: LogicalExpr) -> dict[str, frozenset[str]]:
        """Which columns each base table must deliver for this query.

        An index *covers the query* for table R iff it contains every
        column of R referenced anywhere — unless a Project explicitly
        narrows the need.  We approximate conservatively: all columns
        referenced by predicates, join pairs, group keys, aggregates,
        computed outputs, orders — plus all columns of the root schema.
        """
        used: set[str] = set(self.root.schema.names)
        for node in root.walk():
            if isinstance(node, Select):
                used |= node.predicate.columns()
            elif isinstance(node, Join):
                used |= {c for pair in node.predicate.pairs for c in pair}
            elif isinstance(node, GroupBy):
                used |= set(node.group_columns)
                for spec in node.aggregates:
                    used |= spec.columns()
            elif isinstance(node, Compute):
                used |= {c for _, e in node.outputs for c in e.columns()}
            elif isinstance(node, OrderBy):
                used |= set(node.order)
            elif isinstance(node, Project):
                used |= set(node.columns)
        per_table: dict[str, frozenset[str]] = {}
        for node in root.walk():
            if isinstance(node, BaseRelation):
                cols = frozenset(
                    self.catalog.table(node.table_name).schema.names)
                # Never let a table contribute zero columns.
                per_table[node.table_name] = (cols & used) or cols
        return per_table

    def used_attrs(self, table_name: str) -> frozenset[str]:
        """The columns *table_name* must deliver (all of them for a table
        outside the tree)."""
        used = self._used.get(table_name)
        if used is None:
            used = frozenset(self.catalog.table(table_name).schema.names)
        return used

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
