"""Interesting-order selection strategies (Section 5.2.1 and Experiment B3).

Each strategy answers one question: *which permutations of a flexible
attribute set should the optimizer try* for a merge join, sort-based
aggregate, merge union or duplicate elimination?  The five variants the
paper evaluates in Figure 15:

===========  =====================================================================
``PYRO``     one arbitrary permutation (the strawman baseline)
``PYRO-P``   PostgreSQL's heuristic: for each of the *n* attributes, one order
             starting with that attribute, remainder arbitrary
``PYRO-O``   the paper's approach: favorable orders of the inputs restricted to
             the attribute set, plus the required output order's prefix, pruned
             for redundancy and extended to full permutations
``PYRO-O−``  PYRO-O's candidate orders, but the optimizer is denied partial sort
             enforcers (exact-match only)
``PYRO-E``   all n! permutations (exhaustive; optimal reference)
===========  =====================================================================

``PYRO-O−`` differs from ``PYRO-O`` only in denying partial sorts, so
this module exposes four strategy classes plus :func:`make_strategy`,
which sets the registry's flag on the instance it builds
(:attr:`OrderStrategy.partial_sorts`).  :class:`ForcedOrderStrategy`
overlays explicit permutations on chosen join nodes — the mechanism
phase-2 refinement uses to re-plan with reworked orders.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from ..logical.algebra import GroupBy, Join, LogicalExpr
from .favorable import FavorableOrders
from .sort_order import (
    AttributeEquivalence,
    EMPTY_ORDER,
    SortOrder,
    arbitrary_permutation,
    derived_order,
)

#: Hard cap for exhaustive enumeration: 8! = 40,320 subgoals is already
#: far beyond anything interactive (Figure 16's PYRO-E curve).
EXHAUSTIVE_LIMIT = 8


class OrderStrategy:
    """Base interface.  All returned orders use canonical (left-side /
    output-schema) attribute names and are full permutations of the
    flexible attribute set."""

    name = "abstract"
    #: Whether the search may enforce an order with a partial sort.
    partial_sorts = True

    def join_orders(self, favorable: FavorableOrders, join: Join,
                    read) -> list[SortOrder]:
        """Orders for *join*; *favorable* is the search's favorable
        orders (and equivalences), *read* is what :meth:`reads` returned
        for the required order, the only view of it a strategy gets."""
        raise NotImplementedError

    def group_orders(self, favorable: FavorableOrders, group: GroupBy,
                     columns: Sequence[str], read) -> list[SortOrder]:
        raise NotImplementedError

    def set_orders(self, favorable: FavorableOrders, expr: LogicalExpr,
                   columns: Sequence[str], read) -> list[SortOrder]:
        """Orders for Distinct/Union (flexible over all columns)."""
        return self.group_orders(favorable, expr, columns, read)  # type: ignore[arg-type]

    def reads(self, favorable: FavorableOrders, expr: LogicalExpr,
              columns: Optional[Sequence[str]], required: SortOrder):
        """The part of *required* the orders for *expr* (over *columns*,
        ``None`` for a join) depend on, handed to the ``*_orders``
        methods in its place: a search asks for them once per node and
        value.  By default, none of it."""
        return None

    # -- shared helpers ---------------------------------------------------------------
    @staticmethod
    def _join_attr_names(join: Join) -> list[str]:
        return [l for l, _ in join.predicate.pairs]

    @staticmethod
    def _extend_all(prefixes: Iterable[SortOrder], attrs: Sequence[str],
                    eq: Optional[AttributeEquivalence]) -> list[SortOrder]:
        """Step 3 of computing I(e, o): extend to |S| with arbitrary tails."""
        out: list[SortOrder] = []
        for prefix in prefixes:
            rest = [a for a in attrs
                    if not any(eq.same(a, p) if eq else a == p for p in prefix)]
            candidate = prefix.concat(arbitrary_permutation(rest))
            if candidate not in out:
                out.append(candidate)
        return out

    @staticmethod
    def _drop_redundant(orders: list[SortOrder],
                        eq: Optional[AttributeEquivalence]) -> list[SortOrder]:
        """Step 2: drop o1 when some strictly longer o2 subsumes it
        (o1 < o2); also dedupe."""
        kept: list[SortOrder] = []
        for o in orders:
            if any(o.is_strict_prefix_of(other, eq) for other in orders):
                continue
            if o not in kept:
                kept.append(o)
        return kept


class ArbitraryOrderStrategy(OrderStrategy):
    """PYRO: a single deterministic-arbitrary permutation."""

    name = "pyro"

    def join_orders(self, favorable, join, read):
        return [arbitrary_permutation(self._join_attr_names(join))]

    def group_orders(self, favorable, group, columns, read):
        return [arbitrary_permutation(columns)]


class PostgresHeuristicStrategy(OrderStrategy):
    """PYRO-P: one order per attribute, that attribute leading.

    "For each of the n attributes involved in the join condition, a sort
    order beginning with that attribute is chosen; in each order the
    remaining n−1 attributes are ordered arbitrarily."
    """

    name = "pyro-p"

    @staticmethod
    def _leading(attrs: Sequence[str]) -> list[SortOrder]:
        out = []
        for a in attrs:
            rest = arbitrary_permutation([b for b in attrs if b != a])
            out.append(SortOrder((a,)).concat(rest))
        return out or [EMPTY_ORDER]

    def join_orders(self, favorable, join, read):
        return self._leading(self._join_attr_names(join))

    def group_orders(self, favorable, group, columns, read):
        return self._leading(list(columns))


class FavorableOrderStrategy(OrderStrategy):
    """PYRO-O: candidate orders from input favorable orders (Section 5.2.1).

    For goal ``(e = el ⋈ er, o)`` with join attribute set S:

    1. ``T(e, o) = afm(el, S) ∪ afm(er, S) ∪ {o ∧ S}``
    2. drop redundant orders (``o1 ≤ o2`` ⇒ drop ``o1``)
    3. extend every order to length |S| with an arbitrary tail.
    """

    name = "pyro-o"

    @staticmethod
    def _canonicalize(order: SortOrder, targets: Sequence[str],
                      eq: AttributeEquivalence) -> SortOrder:
        """Rewrite each attribute to the member of *targets* in its
        equivalence class (favorable orders may carry any side's names,
        including columns merged in by earlier joins)."""
        out: list[str] = []
        for a in order:
            if a in targets:
                name = a
            else:
                name = next((t for t in targets if eq.same(a, t)), None)
                if name is None:
                    break
            if name not in out:
                out.append(name)
        return SortOrder(out)

    def reads(self, favorable, expr, columns, required):
        """``o ∧ S``, S the flexible attributes (a join's on both sides)."""
        attrs = ({c for pair in expr.predicate.pairs for c in pair}
                 if columns is None else set(columns))
        return favorable.required_prefix(required, attrs)

    def join_orders(self, favorable, join, read):
        pairs = list(join.predicate.pairs)
        attrs = [l for l, _ in pairs]
        side_attrs = {c for pair in pairs for c in pair}
        eq = favorable.eq

        candidates: list[SortOrder] = []
        for source in (join.left, join.right):
            for o in favorable.afm_on(source, side_attrs):
                candidates.append(self._canonicalize(o, attrs, eq))
        req = self._canonicalize(read, attrs, eq)
        if req:
            candidates.append(req)
        candidates = self._drop_redundant([c for c in candidates if c], eq)
        orders = self._extend_all(candidates, attrs, eq)
        return orders or [arbitrary_permutation(attrs)]

    def group_orders(self, favorable, group, columns, read):
        child = group.children[0]
        eq = favorable.eq
        candidates = [self._canonicalize(o, list(columns), eq)
                      for o in favorable.afm_on(child, set(columns))]
        req = self._canonicalize(read, list(columns), eq)
        if req:
            candidates.append(req)
        candidates = self._drop_redundant([c for c in candidates if c], eq)
        orders = self._extend_all(candidates, list(columns), eq)
        return orders or [arbitrary_permutation(columns)]


class ExhaustiveOrderStrategy(OrderStrategy):
    """PYRO-E: every permutation (reference optimum; factorial)."""

    name = "pyro-e"

    def __init__(self, limit: int = EXHAUSTIVE_LIMIT) -> None:
        self.limit = limit

    def _all(self, attrs: Sequence[str]) -> list[SortOrder]:
        attrs = sorted(attrs)
        if len(attrs) > self.limit:
            raise ValueError(
                f"PYRO-E asked to enumerate {len(attrs)}! permutations; "
                f"limit is {self.limit}! — use PYRO-O for larger sets")
        return list(map(derived_order,
                        itertools.permutations(SortOrder(attrs))))

    def join_orders(self, favorable, join, read):
        return self._all(self._join_attr_names(join))

    def group_orders(self, favorable, group, columns, read):
        return self._all(list(columns))


class ForcedOrderStrategy(OrderStrategy):
    """Overlay explicit permutations for selected nodes (phase-2 re-plan).

    Falls back to *base* wherever no forced order is registered.  Keys
    are logical expressions (Join/GroupBy/...), values full permutations
    in canonical names.
    """

    name = "forced"

    def __init__(self, base: OrderStrategy,
                 forced: dict[LogicalExpr, SortOrder]) -> None:
        self.base = base
        self.forced = dict(forced)
        self.partial_sorts = base.partial_sorts

    def reads(self, favorable, expr, columns, required):
        return (None if expr in self.forced
                else self.base.reads(favorable, expr, columns, required))

    def join_orders(self, favorable, join, read):
        forced = self.forced.get(join)
        if forced is not None:
            return [forced]
        return self.base.join_orders(favorable, join, read)

    def group_orders(self, favorable, group, columns, read):
        forced = self.forced.get(group)
        if forced is not None:
            return [forced]
        return self.base.group_orders(favorable, group, columns, read)


#: Registry used by the optimizer's constructor and the benchmarks.
STRATEGY_VARIANTS = {
    "pyro": (ArbitraryOrderStrategy, True),
    "pyro-p": (PostgresHeuristicStrategy, True),
    "pyro-o": (FavorableOrderStrategy, True),
    "pyro-o-": (FavorableOrderStrategy, False),  # no partial sort enforcers
    "pyro-e": (ExhaustiveOrderStrategy, True),
}


def make_strategy(name: str) -> OrderStrategy:
    """The strategy for a variant name as used in the paper's Figure 15,
    with its registry flag as :attr:`OrderStrategy.partial_sorts`."""
    try:
        cls, partial = STRATEGY_VARIANTS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; have {sorted(STRATEGY_VARIANTS)}"
        ) from None
    strategy = cls()
    strategy.partial_sorts = partial
    return strategy
