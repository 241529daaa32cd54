"""Unit and property tests for the sort-order algebra (paper Section 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.logical.fds import FDSet
from repro.storage.schema import FunctionalDependency
from repro.core.sort_order import (
    EMPTY_ORDER,
    AttributeEquivalence,
    SortOrder,
    arbitrary_permutation,
    longest_common_prefix,
)
from tests.paper_oracles import all_permutations, extend_to_set

ATTRS = "abcdefgh"


def orders(max_size=5):
    return st.lists(st.sampled_from(ATTRS), max_size=max_size, unique=True).map(SortOrder)


class TestConstruction:
    def test_empty(self):
        assert len(EMPTY_ORDER) == 0
        assert not EMPTY_ORDER
        assert str(EMPTY_ORDER) == "ε"

    def test_basic(self):
        o = SortOrder(["a", "b"])
        assert len(o) == 2
        assert list(o) == ["a", "b"]
        assert o[0] == "a"
        assert o.attrs() == {"a", "b"}

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            SortOrder(["a", "a"])

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            SortOrder([1, 2])

    def test_empty_attr_rejected(self):
        with pytest.raises(TypeError):
            SortOrder([""])

    def test_equality_and_hash(self):
        assert SortOrder(["a", "b"]) == SortOrder(["a", "b"])
        assert SortOrder(["a", "b"]) != SortOrder(["b", "a"])
        assert hash(SortOrder(["a"])) == hash(SortOrder(["a"]))
        assert {SortOrder(["a"]): 1}[SortOrder(["a"])] == 1

    def test_slice_returns_order(self):
        o = SortOrder(["a", "b", "c"])
        assert o[:2] == SortOrder(["a", "b"])
        assert isinstance(o[:2], SortOrder)


class TestPrefixRelations:
    def test_prefix(self):
        assert SortOrder(["a"]).is_prefix_of(SortOrder(["a", "b"]))
        assert SortOrder(["a", "b"]).is_prefix_of(SortOrder(["a", "b"]))
        assert not SortOrder(["b"]).is_prefix_of(SortOrder(["a", "b"]))
        assert EMPTY_ORDER.is_prefix_of(SortOrder(["a"]))

    def test_strict_prefix(self):
        assert SortOrder(["a"]).is_strict_prefix_of(SortOrder(["a", "b"]))
        assert not SortOrder(["a", "b"]).is_strict_prefix_of(SortOrder(["a", "b"]))

    def test_satisfies(self):
        # (a, b, c) satisfies requirement (a, b) but not vice versa
        guaranteed = SortOrder(["a", "b", "c"])
        assert guaranteed.satisfies(SortOrder(["a", "b"]))
        assert not SortOrder(["a", "b"]).satisfies(guaranteed)
        assert SortOrder(["a"]).satisfies(EMPTY_ORDER)

    @given(orders(), orders())
    def test_prefix_antisymmetry(self, o1, o2):
        if o1.is_prefix_of(o2) and o2.is_prefix_of(o1):
            assert o1 == o2


class TestConcatMinus:
    def test_concat(self):
        assert SortOrder(["a"]) + SortOrder(["b"]) == SortOrder(["a", "b"])

    def test_concat_skips_duplicates(self):
        assert SortOrder(["a", "b"]) + SortOrder(["b", "c"]) == SortOrder(["a", "b", "c"])

    def test_minus(self):
        o = SortOrder(["a", "b", "c"])
        assert o.minus(SortOrder(["a", "b"])) == SortOrder(["c"])
        assert o.minus(EMPTY_ORDER) == o
        assert o.minus(o) == EMPTY_ORDER

    def test_minus_requires_prefix(self):
        with pytest.raises(ValueError):
            SortOrder(["a", "b"]).minus(SortOrder(["b"]))

    @given(orders())
    def test_minus_inverts_concat(self, o):
        # o2 + (o − o2) == o for every prefix o2 of o
        for k in range(len(o) + 1):
            prefix = o[:k]
            assert prefix + o.minus(prefix) == o


class TestLcp:
    def test_lcp_basic(self):
        assert longest_common_prefix(SortOrder(["a", "b", "c"]),
                                     SortOrder(["a", "b", "d"])) == SortOrder(["a", "b"])
        assert longest_common_prefix(SortOrder(["a"]), SortOrder(["b"])) == EMPTY_ORDER

    @given(orders(), orders())
    def test_lcp_commutes_on_length(self, o1, o2):
        assert len(longest_common_prefix(o1, o2)) == len(longest_common_prefix(o2, o1))

    @given(orders(), orders())
    def test_lcp_is_common_prefix(self, o1, o2):
        lcp = longest_common_prefix(o1, o2)
        assert lcp.is_prefix_of(o1)
        assert lcp.is_prefix_of(o2)

    @given(orders(), orders())
    def test_lcp_maximal(self, o1, o2):
        lcp = longest_common_prefix(o1, o2)
        k = len(lcp)
        if k < min(len(o1), len(o2)):
            assert o1[k] != o2[k]


class TestPrefixInSet:
    def test_basic(self):
        o = SortOrder(["a", "b", "c"])
        assert o.restrict_prefix_to({"a", "b"}) == SortOrder(["a", "b"])
        assert o.restrict_prefix_to({"b", "c"}) == EMPTY_ORDER
        assert o.restrict_prefix_to({"a", "c"}) == SortOrder(["a"])

    @given(orders(), st.sets(st.sampled_from(ATTRS)))
    def test_result_within_set(self, o, s):
        result = o.restrict_prefix_to(s)
        assert result.attrs() <= s
        assert result.is_prefix_of(o)


class TestPermutations:
    def test_arbitrary_is_deterministic(self):
        assert arbitrary_permutation({"b", "a"}) == arbitrary_permutation({"a", "b"})
        assert arbitrary_permutation({"b", "a"}) == SortOrder(["a", "b"])

    def test_all_permutations(self):
        perms = all_permutations({"a", "b", "c"})
        assert len(perms) == 6
        assert len(set(perms)) == 6
        for p in perms:
            assert p.attrs() == {"a", "b", "c"}

    def test_extend_to_set(self):
        o = SortOrder(["c"])
        extended = extend_to_set(o, {"a", "b", "c"})
        assert extended[0] == "c"
        assert extended.attrs() == {"a", "b", "c"}


class TestEquivalence:
    def test_same(self):
        eq = AttributeEquivalence()
        eq.add_equivalence("ps_suppkey", "l_suppkey")
        assert eq.same("ps_suppkey", "l_suppkey")
        assert eq.same("l_suppkey", "ps_suppkey")
        assert not eq.same("ps_suppkey", "l_partkey")

    def test_transitivity(self):
        eq = AttributeEquivalence()
        eq.add_equivalence("a", "b")
        eq.add_equivalence("b", "c")
        assert eq.same("a", "c")

    def test_canonical_deterministic(self):
        eq1 = AttributeEquivalence()
        eq1.add_equivalence("a", "b")
        eq2 = AttributeEquivalence()
        eq2.add_equivalence("b", "a")
        assert eq1.canonical("b") == eq2.canonical("b") == "a"

    def test_prefix_with_equivalence(self):
        eq = AttributeEquivalence()
        eq.add_equivalence("ps_suppkey", "l_suppkey")
        eq.add_equivalence("ps_partkey", "l_partkey")
        guaranteed = SortOrder(["l_suppkey", "l_partkey"])
        required = SortOrder(["ps_suppkey", "ps_partkey"])
        assert guaranteed.satisfies(required, eq)
        assert longest_common_prefix(guaranteed, required, eq) == guaranteed

    def test_translate_and_project(self):
        o = SortOrder(["a", "x"])
        assert o.translate({"a": "b"}) == SortOrder(["b", "x"])

    def test_copy_isolated(self):
        eq = AttributeEquivalence()
        eq.add_equivalence("a", "b")
        clone = eq.copy()
        clone.add_equivalence("a", "c")
        assert clone.same("b", "c")
        assert not eq.same("b", "c")


# -- the order algebra against its statement -------------------------------------------
# Reference definitions, one attribute at a time, as the algebra was first
# written: equivalence by a walk over the drawn pairs, closure by the
# textbook fixpoint.  The shipped operators compare whole orders at C
# level and derive results without re-checking them; on random orders,
# equivalences and dependencies they must agree with these, and every
# order they derive must still be a valid one.
def ref_same(pairs, a, b):
    seen, frontier = {a}, [a]
    while frontier:
        x = frontier.pop()
        for p, q in pairs:
            for u, v in ((p, q), (q, p)):
                if u == x and v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return b in seen


def ref_is_prefix(o1, o2, pairs):
    return len(o1) <= len(o2) and all(
        a == b or ref_same(pairs, a, b) for a, b in zip(o1, o2))


def ref_lcp(o1, o2, pairs):
    out = []
    for a, b in zip(o1, o2):
        if not (a == b or ref_same(pairs, a, b)):
            break
        out.append(a)
    return tuple(out)


def ref_closure(fds, attrs):
    closed = set(attrs) | {"⊤"}
    changed = True
    while changed:
        changed = False
        for det, dep in fds:
            if det <= closed and not dep <= closed:
                closed |= dep
                changed = True
    return closed


def ref_reduce(fds, order):
    kept = []
    for attr in order:
        if attr not in ref_closure(fds, kept):
            kept.append(attr)
    return tuple(kept)


def valid(order):
    return (isinstance(order, SortOrder)
            and all(isinstance(a, str) and a for a in order)
            and len(set(order)) == len(order))


pairs_of = st.lists(st.tuples(st.sampled_from(ATTRS), st.sampled_from(ATTRS)),
                    max_size=4)
fds_of = st.lists(st.tuples(
    # "⊤" alone is a constant column's dependency (``FDSet.add_constant``).
    st.frozensets(st.sampled_from(ATTRS + "⊤"), min_size=1, max_size=2),
    st.frozensets(st.sampled_from(ATTRS), min_size=1, max_size=2)),
    max_size=4)


class TestAgainstReference:
    @given(orders(), orders(), pairs_of)
    def test_prefix_relations(self, o1, o2, pairs):
        for eq in (None, AttributeEquivalence.of(pairs)):
            drawn = pairs if eq is not None else []
            assert o1.is_prefix_of(o2, eq) == ref_is_prefix(o1, o2, drawn)
            assert o2.satisfies(o1, eq) == ref_is_prefix(o1, o2, drawn)
            assert o1.is_strict_prefix_of(o2, eq) == (
                len(o1) < len(o2) and ref_is_prefix(o1, o2, drawn))
            lcp = longest_common_prefix(o1, o2, eq)
            assert lcp == ref_lcp(o1, o2, drawn) and valid(lcp)
            if ref_is_prefix(o2, o1, drawn):
                rest = o1.minus(o2, eq)
                assert rest == tuple(o1)[len(o2):] and valid(rest)
            else:
                with pytest.raises(ValueError):
                    o1.minus(o2, eq)

    @given(orders(), pairs_of, st.sets(st.sampled_from(ATTRS)))
    def test_equivalence_and_restriction(self, o, pairs, attr_set):
        eq = AttributeEquivalence.of(pairs)
        for a in ATTRS:
            for b in ATTRS:
                assert eq.same(a, b) == ref_same(pairs, a, b)
        for a in ATTRS:  # one representative per class: the smallest name
            assert eq.canonical(a) == min(
                b for b in ATTRS if ref_same(pairs, a, b))
        restricted = o.restrict_prefix_to(attr_set, eq)
        expected = []
        for a in o:
            if not any(a == s or ref_same(pairs, a, s) for s in attr_set):
                break
            expected.append(a)
        assert restricted == tuple(expected) and valid(restricted)

    @given(orders(), orders(),
           st.dictionaries(st.sampled_from(ATTRS), st.sampled_from(ATTRS)))
    def test_translate_slice_and_concat(self, o1, o2, mapping):
        names = tuple(mapping.get(a, a) for a in o1)
        if len(set(names)) == len(names):
            translated = o1.translate(mapping)
            assert translated == names and valid(translated)
        else:
            with pytest.raises(ValueError):
                o1.translate(mapping)
        joined = o1 + o2
        assert joined == tuple(o1) + tuple(a for a in o2 if a not in o1)
        assert valid(joined)
        for k in range(len(o1) + 1):
            assert valid(o1[:k]) and valid(o1[k:]) and o1[:k] == tuple(o1)[:k]

    @given(orders(max_size=8), fds_of)
    def test_reduce_order(self, o, drawn):
        fds = FDSet(FunctionalDependency(det, dep) for det, dep in drawn)
        reduced = fds.reduce_order(o)
        assert reduced == ref_reduce(drawn, o) and valid(reduced)
        if len(reduced) == len(o):
            assert reduced is o

    @given(orders())
    def test_an_order_is_the_tuple_of_its_names(self, o):
        names = tuple(o)
        assert o == names and hash(o) == hash(names)
        assert {names: 1}[o] == 1
        assert str(o) == ("(" + ", ".join(names) + ")" if names else "ε")
