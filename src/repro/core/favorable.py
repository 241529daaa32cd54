"""Favorable orders (Section 5.1).

``ford(e)`` — the set of sort orders obtainable on ``e``'s result more
cheaply than by a full sort — is defined through the *benefit*:

    benefit(o, e) = cbp(e, ε) + coe(e, ε, o) − cbp(e, o)
    ford(e)       = { o : benefit(o, e) > 0 }

``ford-min(e)`` prunes orders reachable from a retained order by pure
prefix extension/truncation at equal cost.  As the paper observes,
computing either exactly requires optimizing the expression first, so
only the tests state them, over the optimizer's ``cbp``.  The practical
tool is :class:`FavorableOrders`, the bottom-up **approximate minimal
favorable orders** ``afm(e)`` of Section 5.1.2, computed from the
catalog in a single pass of the query tree with only
longest-common-prefix work per node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..logical.algebra import (
    BaseRelation,
    Compute,
    Distinct,
    GroupBy,
    Join,
    Limit,
    LogicalExpr,
    OrderBy,
    Project,
    Select,
    Union,
)
from ..storage.catalog import Catalog
from .sort_order import EMPTY_ORDER, SortOrder, arbitrary_permutation

if TYPE_CHECKING:
    from ..optimizer.pipeline.groups import Group, GroupTable

#: Safety cap on |afm(e)| — the paper argues the set stays tiny in
#: practice ("typically m ≤ 2"); the cap only guards degenerate catalogs.
MAX_AFM_ORDERS = 16


class FavorableOrders:
    """Bottom-up ``afm`` computation over a search's group table
    (schemas, the whole query's equivalences and used attributes are
    its), memoised per group: structurally equal nodes share one."""

    def __init__(self, catalog: Catalog, groups: GroupTable) -> None:
        self.catalog = catalog
        self.groups = groups
        self.eq = groups.root.eq
        #: ``afm`` per group id; the table's, so it lives with the table.
        self._memo = groups.afm_memo

    # -- public API -----------------------------------------------------------------
    def afm(self, expr: LogicalExpr) -> tuple[SortOrder, ...]:
        """Approximate minimal favorable orders of *expr*."""
        return self._afm(self.groups.of(expr))

    def afm_on(self, expr: LogicalExpr, attr_set: Iterable[str]) -> tuple[SortOrder, ...]:
        """``afm(e, s) = { o ∧ s : o ∈ afm(e) }`` — favorable orders
        restricted to prefixes over *attr_set* (equivalence-aware)."""
        attrs = list(attr_set)
        restricted = [o.restrict_prefix_to(attrs, self.eq) for o in self.afm(expr)]
        return self._dedupe(o for o in restricted if o)

    def required_prefix(self, required: SortOrder,
                        attrs: Iterable[str]) -> SortOrder:
        """``o ∧ S``: the prefix of *required* over *attrs*, under the
        whole query's equivalences."""
        return required.restrict_prefix_to(attrs, self.eq)

    def _afm(self, group: Group) -> tuple[SortOrder, ...]:
        cached = self._memo.get(group.gid)
        if cached is None:
            cached = self._memo[group.gid] = self._dedupe(self._compute(group))
        return cached

    # -- per-node rules (Section 5.1.2) ------------------------------------------------
    def _compute(self, group: Group) -> list[SortOrder]:
        expr, children = group.expr, group.children
        if isinstance(expr, BaseRelation):
            return self._base_relation(expr)
        if isinstance(expr, (Select, Limit, Compute)):
            return list(self._afm(children[0]))
        if isinstance(expr, Project):
            return [o.restrict_prefix_to(expr.columns)
                    for o in self._afm(children[0])]
        if isinstance(expr, Join):
            return self._join(expr, *children)
        if isinstance(expr, GroupBy):
            return self._flexible_single_input(
                children[0], list(expr.group_columns))
        if isinstance(expr, Distinct):
            return self._flexible_single_input(
                children[0], list(group.schema.names))
        if isinstance(expr, Union):
            return self._union(*children)
        if isinstance(expr, OrderBy):
            return self._dedupe([expr.order, *self._afm(children[0])])
        raise TypeError(f"afm: unknown logical node {type(expr).__name__}")

    def _base_relation(self, expr: BaseRelation) -> list[SortOrder]:
        """Rule 1: the clustering order plus every covering index key."""
        table = self.catalog.table(expr.table_name)
        used = self.groups.used_attrs(expr.table_name)
        orders: list[SortOrder] = []
        if table.clustering_order:
            orders.append(table.clustering_order)
        for index in self.catalog.indexes_of(expr.table_name):
            if index.covers(used):
                orders.append(index.key)
        return orders

    def _join(self, expr: Join, left: Group, right: Group) -> list[SortOrder]:
        """Rule 4: input orders pass through (NL join propagates the
        outer's order); additionally, each input favorable order's prefix
        within the join attribute set is extended to a full permutation
        (merge join propagates the chosen join order)."""
        pairs = list(expr.predicate.pairs)
        side_attrs = {c for pair in pairs for c in pair}
        t = list(self._afm(left)) + list(self._afm(right))
        result = list(t)
        for o in [*t, EMPTY_ORDER]:
            prefix = o.restrict_prefix_to(side_attrs, self.eq)
            result.append(self._extend_over_pairs(prefix, pairs))
        return result

    def _extend_over_pairs(self, prefix: SortOrder,
                           pairs: list[tuple[str, str]]) -> SortOrder:
        """``(o' ∧ S) + ⟨S − attrs(o' ∧ S)⟩`` with S as canonical (left)
        names, honouring equivalence between the two sides."""
        remaining = []
        for l, r in pairs:
            covered = any(self.eq.same(a, l) or self.eq.same(a, r) for a in prefix)
            if not covered:
                remaining.append(l)
        return prefix.concat(arbitrary_permutation(remaining))

    def _flexible_single_input(self, child: Group,
                               columns: list[str]) -> list[SortOrder]:
        """Rule 5 (GroupBy et al.): extend each input favorable order's
        prefix over the grouping columns to a full permutation."""
        result: list[SortOrder] = []
        for o in [*self._afm(child), EMPTY_ORDER]:
            prefix = o.restrict_prefix_to(columns, self.eq)
            rest = [c for c in columns
                    if not any(self.eq.same(c, a) for a in prefix)]
            result.append(prefix.concat(arbitrary_permutation(rest)))
        return result

    def _union(self, left: Group, right: Group) -> list[SortOrder]:
        rename = dict(zip(right.schema.names, left.schema.names))
        t = list(self._afm(left))
        t += [o.translate(rename) for o in self._afm(right)]
        columns = list(left.schema.names)
        result: list[SortOrder] = []
        for o in [*t, EMPTY_ORDER]:
            prefix = o.restrict_prefix_to(columns, self.eq)
            rest = [c for c in columns if c not in prefix.attrs()]
            result.append(prefix.concat(arbitrary_permutation(rest)))
        return result

    # -- helpers --------------------------------------------------------------------
    @staticmethod
    def _dedupe(orders: Iterable[SortOrder]) -> tuple[SortOrder, ...]:
        seen: list[SortOrder] = []
        for o in orders:
            if o and o not in seen:
                seen.append(o)
        return tuple(seen[:MAX_AFM_ORDERS])
