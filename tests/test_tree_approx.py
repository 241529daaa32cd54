"""2-approximation for binary trees (Section 4.2): the ½ bound, path
decomposition, and the paper's Figure 3 instance."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sort_order import SortOrder
from repro.core.tree_approx import (
    OrderTreeNode,
    approximate_tree_orders,
    tree_benefit,
)
from tests.paper_oracles import brute_force_tree_orders, build_tree

ATTRS = list("abcde")


def random_tree(rng, n_nodes, max_attrs=3):
    nodes = [OrderTreeNode(0, frozenset(rng.sample(ATTRS,
                                                   rng.randrange(1, max_attrs + 1))))]
    for i in range(1, n_nodes):
        node = OrderTreeNode(i, frozenset(rng.sample(ATTRS,
                                                     rng.randrange(1, max_attrs + 1))))
        candidates = [p for p in nodes if len(p.children) < 2]
        rng.choice(candidates).add_child(node)
        nodes.append(node)
    return nodes[0]


class TestBuildTree:
    def test_leaf(self):
        t = build_tree({"a", "b"})
        assert t.attrs == {"a", "b"}
        assert t.children == []

    def test_nested(self):
        t = build_tree(({"a"}, {"b"}, ({"c"}, {"d"})))
        assert t.attrs == {"a"}
        assert len(t.children) == 2
        assert t.children[1].children[0].attrs == {"d"}

    def test_binary_enforced(self):
        node = OrderTreeNode(0, frozenset("a"))
        node.add_child(OrderTreeNode(1, frozenset("b")))
        node.add_child(OrderTreeNode(2, frozenset("c")))
        with pytest.raises(ValueError):
            node.add_child(OrderTreeNode(3, frozenset("d")))

    def test_ids_unique(self):
        t = build_tree(({"a"}, {"b"}, ({"c"}, {"d"}, {"e"})))
        ids = [n.node_id for n in t.walk()]
        assert len(ids) == len(set(ids)) == 5


class TestApproximation:
    def test_single_node(self):
        t = build_tree({"a", "b"})
        res = approximate_tree_orders(t)
        assert res.benefit == 0
        assert res.assignment[t.node_id].attrs() == {"a", "b"}

    def test_identical_chain(self):
        t = build_tree(({"a", "b"}, ({"a", "b"}, {"a", "b"})))
        res = approximate_tree_orders(t)
        exact = brute_force_tree_orders(t)
        assert res.benefit * 2 >= exact.benefit

    def test_figure3_instance(self):
        """The paper's Figure 3 tree (optimal benefit = 8)."""
        t = build_tree((
            {"a", "b", "c", "d", "e"},
            ({"a", "b", "c", "k"}, {"c", "e", "i", "j"}, {"c", "k", "l", "m"}),
            ({"c", "d"}, {"c", "d", "h", "n"}, {"f", "g", "p", "q"}),
        ))
        res = approximate_tree_orders(t)
        assert res.benefit >= 4  # ≥ OPT/2 = 8/2
        for node in t.walk():
            assert res.assignment[node.node_id].attrs() == node.attrs

    def test_paper_fig3_manual_solution_feasible(self):
        """The permutations printed in Figure 3 achieve benefit 8."""
        t = build_tree((
            {"a", "b", "c", "d", "e"},
            ({"a", "b", "c", "k"}, {"c", "e", "i", "j"}, {"c", "k", "l", "m"}),
            ({"c", "d"}, {"c", "d", "h", "n"}, {"f", "g", "p", "q"}),
        ))
        nodes = list(t.walk())
        manual = {
            nodes[0].node_id: SortOrder("cdabe"),
            nodes[1].node_id: SortOrder("ckab"),
            nodes[2].node_id: SortOrder("ceij"),
            nodes[3].node_id: SortOrder("cklm"),
            nodes[4].node_id: SortOrder("cd"),
            nodes[5].node_id: SortOrder("cdhn"),
            nodes[6].node_id: SortOrder(("f", "g", "p", "q")),
        }
        assert tree_benefit(t, manual) == 8

    @pytest.mark.parametrize("seed", range(25))
    def test_half_optimal_bound_random(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randrange(2, 7), max_attrs=2)
        approx = approximate_tree_orders(t)
        exact = brute_force_tree_orders(t)
        assert 2 * approx.benefit >= exact.benefit, \
            f"approx {approx.benefit} < half of {exact.benefit}"
        assert approx.benefit <= exact.benefit

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_half_optimal_bound_property(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, rng.randrange(2, 6), max_attrs=2)
        approx = approximate_tree_orders(t)
        exact = brute_force_tree_orders(t)
        assert 2 * approx.benefit >= exact.benefit
        # All permutations are complete.
        for node in t.walk():
            assert approx.assignment[node.node_id].attrs() == node.attrs

    def test_odd_even_split_reported(self):
        t = build_tree(({"a"}, ({"a"}, {"a"}), {"a"}))
        res = approximate_tree_orders(t)
        assert res.chosen_parity in ("odd", "even")
        assert res.odd_benefit >= 0 and res.even_benefit >= 0

    def test_brute_force_size_guard(self):
        rng = random.Random(0)
        big = random_tree(rng, 10, max_attrs=5)
        with pytest.raises(ValueError):
            brute_force_tree_orders(big, limit=10)
