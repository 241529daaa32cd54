"""NP-hardness reduction tests (Theorem 4.1): SUM-CUT ↔ Problem 1."""

import itertools

import pytest

from tests.paper_oracles import (
    assignment_from_numbering,
    benefit_from_numbering,
    best_numbering,
    brute_force_tree_orders,
    numbering_from_assignment,
    problem3_objective,
    reduction_from_graph,
    sum_cut_objective,
)

TRIANGLE = {"u": {"v", "w"}, "v": {"u", "w"}, "w": {"u", "v"}}
PATH3 = {"u": {"v"}, "v": {"u", "w"}, "w": {"v"}}
TWO_ISOLATED = {"u": set(), "v": set()}


class TestObjectives:
    def test_triangle_problem3(self):
        # Every vertex adjacent to both others: q1 = 2 (two neighbours of u),
        # q2 = 1 (w adjacent to u and v), q3 = 0.
        assert problem3_objective(TRIANGLE, ["u", "v", "w"]) == 3

    def test_path_problem3(self):
        # numbering (v, u, w): q1 = |N(v)| = 2; q2 = 0; q3 = 0
        assert problem3_objective(PATH3, ["v", "u", "w"]) == 2
        # numbering (u, v, w): q1 = 1; q2 = 1 (w adj to u? no, w adj v only) →
        # vertices adjacent to both u and v: none; q2 = 0
        assert problem3_objective(PATH3, ["u", "v", "w"]) == 1

    def test_sum_cut_requires_complete_numbering(self):
        with pytest.raises(ValueError):
            sum_cut_objective(PATH3, ["u", "v"])

    def test_asymmetric_graph_rejected(self):
        with pytest.raises(ValueError):
            problem3_objective({"a": {"b"}, "b": set()}, ["a", "b"])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            problem3_objective({"a": {"a"}}, ["a"])

    def test_best_numbering(self):
        order, value = best_numbering(PATH3)
        assert value == 2
        assert problem3_objective(PATH3, order) == 2


class TestReductionConstruction:
    def test_caterpillar_shape(self):
        inst = reduction_from_graph(PATH3, pad_size=2)
        assert len(inst.spine) == 3
        assert len(inst.leaves) == 3
        # Spine nodes carry V(G) ∪ L.
        for node in inst.spine:
            assert set(inst.graph_vertices) <= node.attrs
            assert set(inst.pad_attrs) <= node.attrs
        # Leaves carry neighbourhoods.
        leaf_attrs = [set(l.attrs) for l in inst.leaves]
        assert {"v"} in leaf_attrs and {"u", "w"} in leaf_attrs

    def test_isolated_vertex_leaf_nonempty(self):
        inst = reduction_from_graph(TWO_ISOLATED, pad_size=1)
        for leaf in inst.leaves:
            assert leaf.attrs  # placeholder attr, since ⟨∅⟩ is not a node

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            reduction_from_graph({})


class TestForwardDirection:
    """A numbering yields tree benefit (m−1)(n+|L|) + Σq_i."""

    @pytest.mark.parametrize("graph", [TRIANGLE, PATH3, TWO_ISOLATED])
    def test_formula(self, graph):
        inst = reduction_from_graph(graph, pad_size=3)
        m = len(inst.graph_vertices)
        spine_edge = inst.spine_full_benefit
        for numbering in itertools.permutations(sorted(graph)):
            achieved = benefit_from_numbering(inst, graph, list(numbering))
            expected = (m - 1) * spine_edge + problem3_objective(graph, numbering)
            assert achieved == expected

    def test_assignment_is_valid(self):
        inst = reduction_from_graph(PATH3, pad_size=2)
        assignment = assignment_from_numbering(inst, ["v", "u", "w"])
        for node in inst.root.walk():
            assert assignment[node.node_id].attrs() == node.attrs


class TestReverseDirection:
    def test_numbering_extraction(self):
        inst = reduction_from_graph(PATH3, pad_size=2)
        assignment = assignment_from_numbering(inst, ["w", "v", "u"])
        assert numbering_from_assignment(inst, assignment) == ("w", "v", "u")


class TestEquivalenceOnTinyGraph:
    def test_optimal_tree_benefit_matches_best_numbering(self):
        """End-to-end check of the reduction on a 2-vertex graph, small
        enough for brute force over all permutation assignments."""
        graph = {"u": {"v"}, "v": {"u"}}
        inst = reduction_from_graph(graph, pad_size=2)
        exact = brute_force_tree_orders(inst.root, limit=2_000_000)
        _, best_q = best_numbering(graph)
        m = len(inst.graph_vertices)
        expected = (m - 1) * inst.spine_full_benefit + best_q
        assert exact.benefit == expected

    def test_numbering_solution_is_optimal_for_tree(self):
        graph = {"u": {"v"}, "v": {"u"}}
        inst = reduction_from_graph(graph, pad_size=2)
        best_order, _ = best_numbering(graph)
        achieved = benefit_from_numbering(inst, graph, best_order)
        exact = brute_force_tree_orders(inst.root, limit=2_000_000)
        assert achieved == exact.benefit
