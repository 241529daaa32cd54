"""Sort-order algebra (Section 3 of the paper).

A *sort order* is a sequence of attribute names, e.g. ``(l_suppkey,
l_partkey)``.  Following the paper we ignore sort direction
(ascending/descending): every technique in the paper, and therefore in
this library, is direction-agnostic.

The paper's notation maps onto this module as follows:

=====================  =====================================================
Paper                  Here
=====================  =====================================================
``ε``                  :data:`EMPTY_ORDER`
``attrs(o)``           :meth:`SortOrder.attrs`
``|o|``                ``len(o)``
``o1 ≤ o2``            :meth:`SortOrder.is_prefix_of`
``o1 < o2``            :meth:`SortOrder.is_strict_prefix_of`
``o1 ∧ o2``            :func:`longest_common_prefix`
``o1 + o2``            :meth:`SortOrder.concat`
``o1 − o2``            :meth:`SortOrder.minus`
``o ∧ s``              :meth:`SortOrder.restrict_prefix_to`
``⟨s⟩``                :func:`arbitrary_permutation`
=====================  =====================================================

Attribute equivalence
---------------------
The paper renames join attributes so that both sides of an equality
predicate carry the same name ("w.l.g., we use the same name for
attributes being compared from either side").  Real schemas use distinct
qualified names (``ps_suppkey`` vs ``l_suppkey``), so every comparison in
this module optionally accepts an :class:`AttributeEquivalence` — a
union-find over attribute names built from the query's equality
predicates — and treats equivalent attributes as equal.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, count, islice
from operator import eq as eq_, itemgetter, lt, ne
from typing import Iterable, Optional, Sequence


class AttributeEquivalence:
    """Equivalence classes over attribute names.

    Join predicates such as ``ps_suppkey = l_suppkey`` make the two
    attribute names interchangeable for the purposes of order matching.
    An instance of this class records such equivalences and answers
    ``same(a, b)`` queries with two dict reads: it keeps every attribute
    of a class of two or more mapped to the class's representative (its
    smallest name), so ``roots.get(a, a)`` is *a*'s canonical name — a
    lookup ``map`` can run over a whole order at C level.
    """

    __slots__ = ("roots",)

    def __init__(self) -> None:
        #: Attribute -> canonical representative, for every attribute in
        #: a class of two or more (any other is its own representative).
        self.roots: dict[str, str] = {}

    def add_equivalence(self, a: str, b: str) -> None:
        """Record that attributes *a* and *b* are interchangeable."""
        roots = self.roots
        ra, rb = roots.get(a, a), roots.get(b, b)
        if ra != rb:
            # Deterministic union: smaller name becomes the root so that
            # canonicalisation does not depend on insertion order.
            lo, hi = sorted((ra, rb))
            for name, root in roots.items():
                if root == hi:
                    roots[name] = lo
            roots[hi] = lo
            roots.setdefault(lo, lo)

    def same(self, a: str, b: str) -> bool:
        """Whether *a* and *b* denote the same (equivalence class of) attribute."""
        roots = self.roots
        return a == b or roots.get(a, a) == roots.get(b, b)

    def canonical(self, a: str) -> str:
        """Canonical representative of *a*'s equivalence class."""
        return self.roots.get(a, a)

    @staticmethod
    def of(pairs: Iterable[tuple[str, str]]) -> "AttributeEquivalence":
        """The classes generated by *pairs* of interchangeable attributes."""
        eq = AttributeEquivalence()
        for a, b in pairs:
            eq.add_equivalence(a, b)
        return eq

    def copy(self) -> "AttributeEquivalence":
        clone = AttributeEquivalence()
        clone.roots = dict(self.roots)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        classes: dict[str, list[str]] = {}
        for a, root in self.roots.items():
            classes.setdefault(root, []).append(a)
        return f"AttributeEquivalence({classes})"


class SortOrder(tuple):
    """An immutable sequence of attribute names denoting a sort order.

    ``SortOrder()`` is the empty order ``ε``.  An order *is* the tuple
    of its names: length, iteration, indexing, ``==``, ``<`` and
    ``hash`` are the tuple's own, C-level, and an order equals and
    hashes like the plain tuple of its names — ``SortOrder(("a",)) ==
    ("a",)``, so a dict keyed by both kinds takes the two as one key.
    Slicing gives a :class:`SortOrder` and ``+`` is :meth:`concat`
    (``tuple(o) + t`` is the tuple concatenation).

    The constructor checks its names (non-empty strings, no duplicate);
    an order derived from valid ones — a slice, a common prefix, a
    reduction, a translation into a schema's names, a concatenation, a
    permutation of a valid one — is made by :func:`derived_order`,
    which checks nothing.
    """

    __slots__ = ()

    def __new__(cls, attrs: Iterable[str] = ()) -> "SortOrder":
        attrs = tuple(attrs)
        for a in attrs:
            if not isinstance(a, str) or not a:
                raise TypeError(f"sort order attributes must be non-empty strings, got {a!r}")
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"duplicate attribute in sort order {attrs!r}")
        return tuple.__new__(cls, attrs)

    def __getitem__(self, idx):
        got = _item(self, idx)
        return derived_order(got) if isinstance(idx, slice) else got

    def __repr__(self) -> str:
        return f"SortOrder({', '.join(self)})" if self else "SortOrder(ε)"

    def __str__(self) -> str:
        return "(" + ", ".join(self) + ")" if self else "ε"

    # -- paper operators ----------------------------------------------------------
    def attrs(self) -> frozenset[str]:
        """``attrs(o)``: the set of attributes in the order."""
        return frozenset(self)

    def is_prefix_of(self, other: "SortOrder", eq: Optional[AttributeEquivalence] = None) -> bool:
        """``self ≤ other``: *other* subsumes *self* (*self* is a prefix).
        Names are compared first; the canonical names only when some
        differ."""
        if len(self) > len(other):
            return False
        if all(map(eq_, self, other)):
            return True
        if eq is None:
            return False
        get = eq.roots.get
        return all(map(eq_, map(get, self, self), map(get, other, other)))

    def is_strict_prefix_of(
        self, other: "SortOrder", eq: Optional[AttributeEquivalence] = None
    ) -> bool:
        """``self < other``: proper-prefix test."""
        return len(self) < len(other) and self.is_prefix_of(other, eq)

    def satisfies(self, required: "SortOrder", eq: Optional[AttributeEquivalence] = None) -> bool:
        """Whether a stream sorted by ``self`` meets requirement *required*.

        A guaranteed order satisfies a requirement iff the requirement is a
        prefix of the guarantee (sorting by ``(a, b, c)`` implies sorting by
        ``(a, b)``).
        """
        return required.is_prefix_of(self, eq)

    def concat(self, other: "SortOrder") -> "SortOrder":
        """``o1 + o2``: concatenation, skipping attributes already present."""
        if not isinstance(other, SortOrder):
            other = SortOrder(other)
        return derived_order((*self, *(a for a in other if a not in self)))

    __add__ = concat

    def minus(self, prefix: "SortOrder", eq: Optional[AttributeEquivalence] = None) -> "SortOrder":
        """``o1 − o2``: the suffix such that ``prefix + suffix == self``.

        Defined only when *prefix* ``≤`` *self*; raises :class:`ValueError`
        otherwise, mirroring the partial definition in the paper.
        """
        if not prefix.is_prefix_of(self, eq):
            raise ValueError(f"{prefix} is not a prefix of {self}")
        return self[len(prefix):]

    def restrict_prefix_to(self, attr_set: Iterable[str],
                           eq: Optional[AttributeEquivalence] = None) -> "SortOrder":
        """``o ∧ s``: longest prefix of ``self`` whose attributes all lie in *attr_set*.

        With an equivalence relation, membership is tested modulo
        equivalence classes (an order on ``l_suppkey`` counts as an order on
        ``ps_suppkey`` when the two are joined by equality).
        """
        attr_set = set(attr_set)
        k = 0
        for a in self:
            if a not in attr_set and (
                    eq is None or not any(eq.same(a, s) for s in attr_set)):
                break
            k += 1
        return self if k == len(self) else self[:k]

    def translate(self, mapping: dict[str, str]) -> "SortOrder":
        """Rename attributes through *mapping* (identity for absent keys)."""
        return SortOrder(mapping.get(a, a) for a in self)


#: ``derived_order(names)``: the :class:`SortOrder` of *names* taken from
#: valid orders — unique non-empty strings — built without the checks.
derived_order = partial(tuple.__new__, SortOrder)
_item = tuple.__getitem__

#: The empty sort order ``ε``.
EMPTY_ORDER = SortOrder()


def longest_common_prefix(o1: SortOrder, o2: SortOrder,
                          eq: Optional[AttributeEquivalence] = None) -> SortOrder:
    """``o1 ∧ o2``: the longest common prefix of two orders (in *o1*'s
    names; *o1* itself when it is a prefix of *o2*).  The names are
    compared first; the canonical names only when some differ."""
    n = min(len(o1), len(o2))
    k = next(compress(count(), map(ne, o1, o2)), n)
    if k < n and eq is not None:
        get = eq.roots.get
        k = next(compress(count(), map(ne, map(get, o1, o1),
                                       map(get, o2, o2))), n)
    return o1 if k == len(o1) else derived_order(_item(o1, slice(k)))


def arbitrary_permutation(attr_set: Iterable[str]) -> SortOrder:
    """``⟨s⟩``: a deterministic "arbitrary" permutation of an attribute set.

    The paper leaves the choice free; for reproducibility we use the
    lexicographically smallest permutation.
    """
    return SortOrder(tuple(sorted(set(attr_set))))


def null_safe_wrap(values: Iterable) -> tuple:
    """Make a key tuple totally ordered in the presence of SQL NULLs.

    Each element becomes ``(present, value)`` with NULL mapped to
    ``(False, 0)``, so NULLs sort first and never raise ``TypeError``
    against non-NULL values.  Needed because outer-join outputs (Query 4)
    flow into further sorts and merge joins.
    """
    return tuple((False, 0) if v is None else (True, v) for v in values)


def sorted_nulls_first(rows: Sequence[tuple],
                       positions: Sequence[int]) -> list[tuple]:
    """*rows* stable-sorted on the columns at *positions*, NULLS FIRST.

    One C-level ``sorted`` on the leading column alone (a bare
    ``itemgetter``, no key tuple per row), then one loop that sorts each
    run of equal leading values in place on the remaining columns, as
    MRS sorts a partial sort segment: a stable sort of each contiguous
    run after a stable sort on the lead is the stable lexicographic sort.
    A run ends where its lead is less than the next one, so a value is
    equal to itself, as in tuple comparison (rows led by one reused
    ``float('nan')`` object are one run).  A one-column key, or fewer
    than two rows, is the single ``sorted``.  Only when a NULL meets a
    value anywhere (a ``TypeError``) is the whole input redone on
    :func:`null_safe_wrap` keys, from *rows* left untouched: a
    one-shot iterable is materialised first, so the redo loses no row.
    """
    if not isinstance(rows, list):
        rows = list(rows)
    try:
        if len(positions) < 2 or len(rows) < 2:
            return sorted(rows, key=itemgetter(*positions))
        lead = itemgetter(positions[0])
        out = sorted(rows, key=lead)
        leads = list(map(lead, out))
        # rises[i] is 1 where row i + 1's lead is greater than row i's, so
        # zeros i..j make rows i..j + 1 a run of equal leads; a run with
        # no rise after it (find gives -1) reaches the end.
        rises = bytes(map(lt, leads, islice(leads, 1, None)))
        rest = itemgetter(*positions[1:])
        start = rises.find(0)
        while start >= 0:
            end = rises.find(1, start) + 1 or len(out)
            run = out[start:end]
            run.sort(key=rest)
            out[start:end] = run
            start = rises.find(0, end)
        return out
    except TypeError:
        return sorted(rows, key=lambda row: null_safe_wrap(
            [row[i] for i in positions]))
