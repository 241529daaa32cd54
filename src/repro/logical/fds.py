"""Functional-dependency reasoning for order reduction.

Complementary to the paper (it cites Simmen et al. [SSM96] for this),
but required to reproduce its Query 3 discussion: PostgreSQL "uses a
hash aggregate where a sort-based aggregate would have been much cheaper
as the required sort order was available from the output of merge-join
(note that the functional dependency {ps_partkey, ps_suppkey} →
{ps_availqty} holds)".

:class:`FDSet` collects dependencies from declared table keys, join
equalities (``a = b`` gives ``a → b`` and ``b → a``) and
constant-binding filters (``col = 5`` gives ``∅ → col``), and offers:

* :meth:`FDSet.closure` — attribute-set closure (textbook algorithm);
* :meth:`FDSet.reduce_order` — drop order attributes functionally
  determined by their predecessors;
* :meth:`FDSet.reduce_group_columns` — minimal sort-key subset of a
  GROUP BY column set.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from ..core.sort_order import SortOrder, derived_order
from ..expr.expressions import Col, Comparison, Const, Predicate
from ..storage.schema import FunctionalDependency


class FDSet:
    """A set of functional dependencies with closure computation."""

    def __init__(self, fds: Iterable[FunctionalDependency] = ()) -> None:
        self._fds: list[FunctionalDependency] = list(fds)
        #: :meth:`closure` by seed attribute set; every add clears it.
        self._closures: dict[frozenset[str], frozenset[str]] = {}

    def add(self, fd: FunctionalDependency) -> None:
        self._fds.append(fd)
        self._closures.clear()

    def add_equivalence(self, a: str, b: str) -> None:
        self.add(FunctionalDependency(frozenset({a}), frozenset({b})))
        self.add(FunctionalDependency(frozenset({b}), frozenset({a})))

    def add_constant(self, column: str) -> None:
        """``col = const`` filters make the column constant: ∅ → col
        (modelled as determinable from any attribute set, via a marker)."""
        self.add(FunctionalDependency(frozenset({_ALWAYS}), frozenset({column})))

    def add_from_predicate(self, predicate: Predicate) -> None:
        for conj in predicate.conjuncts():
            if isinstance(conj, Comparison) and conj.op == "=":
                left, right = conj.left, conj.right
                if isinstance(left, Col) and isinstance(right, Const):
                    self.add_constant(left.name)
                elif isinstance(right, Col) and isinstance(left, Const):
                    self.add_constant(right.name)
                elif isinstance(left, Col) and isinstance(right, Col):
                    self.add_equivalence(left.name, right.name)

    def __len__(self) -> int:
        return len(self._fds)

    def __iter__(self):
        return iter(self._fds)

    # -- reasoning -----------------------------------------------------------------
    def closure(self, attrs: Iterable[str]) -> frozenset[str]:
        """All attributes functionally determined by *attrs* (computed
        once per attribute set until the next add)."""
        seed = frozenset(attrs)
        hit = self._closures.get(seed)
        if hit is not None:
            return hit
        closed = set(seed)
        closed.add(_ALWAYS)
        changed = True
        while changed:
            changed = False
            for fd in self._fds:
                if fd.determinants <= closed and not fd.dependents <= closed:
                    closed |= fd.dependents
                    changed = True
        closed.discard(_ALWAYS)
        hit = self._closures[seed] = frozenset(closed)
        return hit

    def reduce_order(self, order: SortOrder) -> SortOrder:
        """Drop attributes determined by their predecessors.

        A stream sorted on the reduced order is necessarily sorted on the
        original (each dropped attribute is constant within any group of
        its predecessors).  *order* itself when nothing drops.
        """
        closure = self.closure
        kept: list[str] = []
        for attr in order:
            if attr not in closure(kept):
                kept.append(attr)
        return order if len(kept) == len(order) else derived_order(kept)

    def reduce_group_columns(self, columns: Iterable[str]) -> tuple[str, ...]:
        """A minimal subset of *columns* whose closure covers them all.

        Greedy elimination in reverse declaration order — deterministic,
        not guaranteed globally minimum (that problem is itself hard),
        but exact for key-based FDs like Query 3's.
        """
        cols = list(columns)
        keep = list(cols)
        for col in reversed(cols):
            candidate = [c for c in keep if c != col]
            if col in self.closure(candidate):
                keep = candidate
        return tuple(keep)


#: Internal marker treated as a member of every closure seed, letting
#: "constant column" FDs fire unconditionally.
_ALWAYS = "⊤"


def node_fds(catalog, node, child_fds, child_schemas) -> FDSet:
    """The FDs valid on *node*'s result, given its children's FD sets and
    output schemas — the per-node step the optimizer's group table
    (:mod:`repro.optimizer.pipeline.groups`) runs once per group.

    Base-table keys hold on every result that retains those columns;
    join equalities and constant filters are added from the node.

    A :class:`~repro.logical.algebra.Union` is a fact *intersection*: a
    dependency holds on union output only if it holds in **both**
    branches (with right-branch columns renamed to the left/output
    names) — a key or join equality established in one branch says
    nothing about the sibling's rows, even when the branches reuse the
    same column names.  Each branch FD is kept iff the other branch
    *entails* it (closure test), a sound approximation of the exact
    FD-set intersection.
    """
    from .algebra import BaseRelation, Join, Select, Union

    if isinstance(node, Union):
        lnames, rnames = child_schemas[0].names, child_schemas[1].names
        return _intersect_fds(child_fds[0], child_fds[1],
                              dict(zip(lnames, rnames)),
                              dict(zip(rnames, lnames)))
    fds = FDSet()
    if isinstance(node, BaseRelation):
        fds = FDSet(catalog.table(node.table_name).functional_dependencies())
    elif isinstance(node, Join):
        if node.join_type == "inner":
            for l, r in node.predicate.pairs:
                fds.add_equivalence(l, r)
    elif isinstance(node, Select):
        fds.add_from_predicate(node.predicate)
    return FDSet([*fds, *chain.from_iterable(child_fds)])


def _rename_fd(fd: FunctionalDependency,
               mapping: dict[str, str]) -> FunctionalDependency:
    """Translate an FD across a positional schema rename (the ``⊤``
    constant marker and columns outside the schema pass through)."""
    return FunctionalDependency(
        frozenset(mapping.get(a, a) for a in fd.determinants),
        frozenset(mapping.get(a, a) for a in fd.dependents))


def _intersect_fds(left: FDSet, right: FDSet, to_right: dict[str, str],
                   to_left: dict[str, str]) -> FDSet:
    """FDs (in left/output names) entailed by **both** branch FD sets."""
    out = FDSet()
    seen: set[tuple[frozenset, frozenset]] = set()
    for fd in left:
        translated = _rename_fd(fd, to_right)
        if translated.dependents <= right.closure(translated.determinants):
            key = (fd.determinants, fd.dependents)
            if key not in seen:
                seen.add(key)
                out.add(fd)
    for fd in right:
        translated = _rename_fd(fd, to_left)
        if translated.dependents <= left.closure(translated.determinants):
            key = (translated.determinants, translated.dependents)
            if key not in seen:
                seen.add(key)
                out.add(translated)
    return out
