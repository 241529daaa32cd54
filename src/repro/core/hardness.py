"""NP-hardness artefacts for Problem 1 (Section 4.1, Theorem 4.1).

The paper reduces SUM-CUT (graph layout, [DPS02]) to the sort-order
selection problem.  The pipeline formalised here:

* **Problem 2 (SUM-CUT)** — number the vertices ``1..m`` minimising
  ``Σ c_i`` where ``c_i`` counts vertices numbered ``≤ i`` adjacent to a
  vertex numbered ``> i``.
* **Problem 3** — equivalent complement form: maximise ``Σ q_i`` where
  ``q_i`` is the number of vertices adjacent to *all* of the first *i*
  numbered vertices.
* **Problem 1 instance** — a caterpillar binary tree: a spine of ``m``
  internal nodes each carrying attribute set ``V(G) ∪ L`` (``L`` a large
  disjoint pad set), plus one leaf per spine node ``v_i`` carrying the
  neighbourhood of graph vertex ``u_i``.

With ``L`` large enough the spine nodes are forced to share one
permutation; its prefix of graph vertices *is* a numbering, and the leaf
benefits sum to the Problem 3 objective.  These constructions let the
test suite verify the reduction end-to-end on small graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence

from .sort_order import SortOrder, longest_common_prefix
from .tree_approx import OrderTreeNode, brute_force_tree_orders, tree_benefit

Graph = Mapping[str, Iterable[str]]


def _normalize(graph: Graph) -> dict[str, frozenset[str]]:
    adj = {v: frozenset(ns) for v, ns in graph.items()}
    for v, ns in adj.items():
        for u in ns:
            if u not in adj or v not in adj[u]:
                raise ValueError(f"graph not symmetric at edge ({v}, {u})")
            if u == v:
                raise ValueError(f"self-loop at {v}")
    return adj


def sum_cut_objective(graph: Graph, numbering: Sequence[str]) -> int:
    """Problem 2: Σ c_i for the given vertex numbering (to MINIMISE)."""
    adj = _normalize(graph)
    order = list(numbering)
    if sorted(order) != sorted(adj):
        raise ValueError("numbering must enumerate every vertex exactly once")
    total = 0
    placed: set[str] = set()
    for i, v in enumerate(order):
        placed.add(v)
        later = set(order[i + 1:])
        c_i = sum(1 for w in placed if adj[w] & later)
        total += c_i
    return total


def problem3_objective(graph: Graph, numbering: Sequence[str]) -> int:
    """Problem 3: Σ q_i — vertices adjacent to all of the first *i* (to MAXIMISE)."""
    adj = _normalize(graph)
    order = list(numbering)
    total = 0
    for i in range(1, len(order) + 1):
        prefix = order[:i]
        q_i = sum(1 for w in adj
                  if all(w in adj[u] for u in prefix))
        total += q_i
    return total


def best_numbering(graph: Graph) -> tuple[tuple[str, ...], int]:
    """Exhaustive Problem 3 optimum (small graphs only)."""
    adj = _normalize(graph)
    best_val, best_order = -1, None
    for perm in itertools.permutations(sorted(adj)):
        val = problem3_objective(adj, perm)
        if val > best_val:
            best_val, best_order = val, perm
    return best_order, best_val  # type: ignore[return-value]


@dataclass(frozen=True)
class ReductionInstance:
    """The Problem 1 instance produced from a graph."""

    root: OrderTreeNode
    spine: tuple[OrderTreeNode, ...]
    leaves: tuple[OrderTreeNode, ...]
    graph_vertices: tuple[str, ...]
    pad_attrs: tuple[str, ...]

    @property
    def spine_full_benefit(self) -> int:
        """Benefit of one spine edge when both endpoints fully align."""
        return len(self.graph_vertices) + len(self.pad_attrs)


def reduction_from_graph(graph: Graph, pad_size: int | None = None) -> ReductionInstance:
    """Construct the caterpillar tree of the Theorem 4.1 reduction.

    ``pad_size`` is |L|; the proof wants it "arbitrarily large" — large
    enough that breaking spine alignment can never pay.  ``m·n`` (graph
    vertices × spine edges) always suffices; tests may pass smaller
    values to probe the boundary.
    """
    adj = _normalize(graph)
    vertices = tuple(sorted(adj))
    m = len(vertices)
    if m == 0:
        raise ValueError("graph must be non-empty")
    if pad_size is None:
        pad_size = max(1, m * m)
    pad = tuple(f"_pad{i}" for i in range(pad_size))
    internal_attrs = frozenset(vertices) | frozenset(pad)

    spine: list[OrderTreeNode] = []
    leaves: list[OrderTreeNode] = []
    next_id = 0
    for i, u in enumerate(vertices):
        node = OrderTreeNode(next_id, internal_attrs)
        next_id += 1
        if spine:
            spine[-1].add_child(node)
        spine.append(node)
    for i, u in enumerate(vertices):
        leaf = OrderTreeNode(next_id, frozenset(adj[u]) if adj[u] else frozenset({f"_iso_{u}"}))
        next_id += 1
        spine[i].add_child(leaf)
        leaves.append(leaf)
    return ReductionInstance(spine[0], tuple(spine), tuple(leaves), vertices, pad)


def assignment_from_numbering(instance: ReductionInstance,
                              numbering: Sequence[str]) -> Dict[int, SortOrder]:
    """Lift a Problem 3 numbering to a Problem 1 permutation assignment.

    Every spine node takes the permutation ``numbering + pad``; every
    leaf takes its best response: the prefix of the spine permutation
    contained in its attribute set, extended arbitrarily.
    """
    spine_perm = SortOrder(tuple(numbering) + instance.pad_attrs)
    assignment: Dict[int, SortOrder] = {}
    for node in instance.spine:
        assignment[node.node_id] = spine_perm
    for leaf in instance.leaves:
        prefix = spine_perm.restrict_prefix_to(leaf.attrs)
        rest = tuple(sorted(leaf.attrs - prefix.attrs()))
        assignment[leaf.node_id] = SortOrder((*prefix, *rest))
    return assignment


def benefit_from_numbering(instance: ReductionInstance,
                           graph: Graph, numbering: Sequence[str]) -> int:
    """Tree benefit realised by a numbering:
    ``(m-1)·(n+|L|) + Σ q_i`` (the reduction's forward direction)."""
    assignment = assignment_from_numbering(instance, numbering)
    return tree_benefit(instance.root, assignment)


def numbering_from_assignment(instance: ReductionInstance,
                              assignment: Dict[int, SortOrder]) -> tuple[str, ...]:
    """Extract a numbering from any Problem 1 solution (reverse direction).

    Takes the first spine node's permutation and reads off graph vertices
    in order of first appearance, appending missing vertices at the end.
    """
    vertices = set(instance.graph_vertices)
    perm = assignment[instance.spine[0].node_id]
    seen: list[str] = [a for a in perm if a in vertices]
    seen.extend(sorted(vertices - set(seen)))
    return tuple(seen)
