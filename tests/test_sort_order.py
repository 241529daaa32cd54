"""Unit and property tests for the sort-order algebra (paper Section 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.sort_order import (
    EMPTY_ORDER,
    AttributeEquivalence,
    SortOrder,
    all_permutations,
    arbitrary_permutation,
    extend_to_set,
    longest_common_prefix,
    prefix_in_set,
)

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
        assert prefix_in_set(o, {"a", "b"}) == SortOrder(["a", "b"])
        assert prefix_in_set(o, {"b", "c"}) == EMPTY_ORDER
        assert prefix_in_set(o, {"a", "c"}) == SortOrder(["a"])

    @given(orders(), st.sets(st.sampled_from(ATTRS)))
    def test_result_within_set(self, o, s):
        result = prefix_in_set(o, s)
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
