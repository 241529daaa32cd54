"""PathOrder DP (Fig. 4): optimality against brute force, permutation
validity, and the paper's worked examples."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.path_order import PathOrderResult, path_order
from repro.core.sort_order import SortOrder
from tests.paper_oracles import brute_force_path_order, path_benefit

ATTRS = list("abcdef")


def random_sets(rng, n, max_attrs=3):
    return [frozenset(rng.sample(ATTRS, rng.randrange(1, max_attrs + 1)))
            for _ in range(n)]


class TestPathOrderBasics:
    def test_empty_path(self):
        assert path_order([]) == PathOrderResult((), 0)

    def test_single_node(self):
        res = path_order([{"b", "a"}])
        assert res.benefit == 0
        assert res.permutations[0].attrs() == {"a", "b"}

    def test_two_identical_nodes(self):
        res = path_order([{"a", "b"}, {"a", "b"}])
        assert res.benefit == 2
        assert res.permutations[0] == res.permutations[1]

    def test_disjoint_nodes(self):
        res = path_order([{"a"}, {"b"}, {"c"}])
        assert res.benefit == 0

    def test_middle_node_shares_both_sides(self):
        # {a,b} - {a} - ... the middle can only serve one neighbour fully
        res = path_order([{"a", "b"}, {"a"}, {"a", "b"}])
        assert res.benefit == 2  # 'a' prefix shared across the whole path

    def test_fig3_style_chain(self):
        # A chain where interior segments share different attributes.
        res = path_order([{"a", "b"}, {"a", "b"}, {"c"}, {"a", "d"}, {"a", "d"}])
        assert res.benefit == 4
        assert path_benefit(res.permutations) == 4

    def test_permutations_cover_sets(self):
        sets = [{"a", "b", "c"}, {"b", "c"}, {"c", "d"}]
        res = path_order(sets)
        for s, p in zip(sets, res.permutations):
            assert p.attrs() == frozenset(s)

    def test_global_subtraction_bug_avoided(self):
        """Literal pseudocode subtracts used attrs from *disjoint* segments,
        which would truncate their permutations; see module docstring."""
        sets = [{"a", "b"}, {"a", "b"}, {"c"}, {"a", "d"}, {"a", "d"}]
        res = path_order(sets)
        for s, p in zip(sets, res.permutations):
            assert p.attrs() == frozenset(s)
        # Benefit of the (a,d) pair must be fully realised.
        assert len(res.permutations[3]) == 2
        assert res.permutations[3] == res.permutations[4]


class TestOptimality:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_random(self, seed):
        rng = random.Random(seed)
        sets = random_sets(rng, rng.randrange(1, 6))
        dp = path_order(sets)
        bf = brute_force_path_order(sets)
        assert dp.benefit == bf.benefit, sets
        assert path_benefit(dp.permutations) == dp.benefit

    @given(st.lists(st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3),
                    min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_dp_optimal_property(self, sets):
        dp = path_order(sets)
        bf = brute_force_path_order(sets)
        assert dp.benefit == bf.benefit
        # The DP's claimed benefit must be achieved by its permutations.
        assert path_benefit(dp.permutations) == dp.benefit

    @given(st.lists(st.sets(st.sampled_from(ATTRS), min_size=1, max_size=4),
                    min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_benefit_bounds(self, sets):
        dp = path_order(sets)
        upper = sum(len(frozenset(a) & frozenset(b))
                    for a, b in zip(sets, sets[1:]))
        assert 0 <= dp.benefit <= upper

    def test_custom_permute_hook(self):
        calls = []

        def tracking(s):
            calls.append(frozenset(s))
            return SortOrder(sorted(s, reverse=True))

        res = path_order([{"a", "b"}, {"a", "b"}], permute=tracking)
        assert res.benefit == 2
        assert res.permutations[0] == SortOrder(["b", "a"])
        assert calls
