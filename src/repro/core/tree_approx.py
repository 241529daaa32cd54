"""2-approximation for sort orders on a binary tree (Section 4.2, Fig. 5).

Problem 1 on general binary trees is NP-hard (Theorem 4.1); the paper's
approximation splits the tree's edges by level parity:

* ``P_odd`` — edges whose lower endpoint is at odd depth,
* ``P_even`` — edges whose lower endpoint is at even depth.

Within one parity class every node is incident to either its parent edge
or its child edges (never both), so the classes decompose into vertex-
disjoint *paths*, each solvable exactly by the :func:`~repro.core.path_order.path_order`
DP.  Because the optimum's benefit splits across the two classes,
``max(ben(S_odd), ben(S_even)) ≥ OPT/2``.

The module also provides the benefit evaluator used by phase-2 plan
refinement.  The tests hold the ½ bound to an exhaustive optimum on
small trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator

from .path_order import path_order
from .sort_order import SortOrder, arbitrary_permutation, longest_common_prefix


@dataclass
class OrderTreeNode:
    """A node of an order-selection instance (e.g. one merge-join).

    ``attrs`` is the attribute set to permute (the join attribute set, or
    the free attributes during phase-2 refinement).  ``payload`` lets
    callers attach the plan node being refined.
    """

    node_id: int
    attrs: frozenset[str]
    children: list["OrderTreeNode"] = field(default_factory=list)
    payload: object = None

    def add_child(self, child: "OrderTreeNode") -> "OrderTreeNode":
        if len(self.children) >= 2:
            raise ValueError("order tree is binary")
        self.children.append(child)
        return child

    def walk(self) -> Iterator["OrderTreeNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def edges(self) -> Iterator[tuple["OrderTreeNode", "OrderTreeNode"]]:
        for child in self.children:
            yield (self, child)
            yield from child.edges()


def tree_benefit(root: OrderTreeNode,
                 assignment: Dict[int, SortOrder]) -> int:
    """Problem 1 objective: Σ over tree edges of |lcp(p_parent, p_child)|."""
    total = 0
    for parent, child in root.edges():
        total += len(longest_common_prefix(assignment[parent.node_id],
                                           assignment[child.node_id]))
    return total


@dataclass(frozen=True)
class TreeApproxResult:
    assignment: Dict[int, SortOrder]
    benefit: int
    chosen_parity: str
    odd_benefit: int
    even_benefit: int


def _parity_paths(root: OrderTreeNode, parity: int) -> list[list[OrderTreeNode]]:
    """Decompose the chosen parity class of edges into node paths.

    Each component is ``child1 — parent — child2`` (or a single edge):
    a node keeps either its parent edge or its child edges in one class,
    so walking from each even/odd "center" suffices.
    """
    depths: Dict[int, int] = {root.node_id: 0}
    for parent, child in root.edges():
        depths[child.node_id] = depths[parent.node_id] + 1

    adjacency: Dict[int, list[OrderTreeNode]] = {}
    nodes: Dict[int, OrderTreeNode] = {n.node_id: n for n in root.walk()}
    selected: list[tuple[OrderTreeNode, OrderTreeNode]] = []
    for parent, child in root.edges():
        if depths[child.node_id] % 2 == parity:
            selected.append((parent, child))
            adjacency.setdefault(parent.node_id, []).append(child)
            adjacency.setdefault(child.node_id, []).append(parent)

    paths: list[list[OrderTreeNode]] = []
    visited: set[int] = set()
    for node_id, neighbours in adjacency.items():
        if node_id in visited or len(neighbours) > 1:
            continue
        # Endpoint of a path: walk to the other end.
        path = [nodes[node_id]]
        visited.add(node_id)
        current = node_id
        while True:
            nxt = [n for n in adjacency[current] if n.node_id not in visited]
            if not nxt:
                break
            path.append(nxt[0])
            visited.add(nxt[0].node_id)
            current = nxt[0].node_id
        paths.append(path)
    return paths


def approximate_tree_orders(root: OrderTreeNode) -> TreeApproxResult:
    """The paper's 2-approximation: solve odd- and even-level path sets
    exactly, keep the better, fill uncovered nodes arbitrarily."""
    solutions: dict[int, tuple[int, Dict[int, SortOrder]]] = {}
    for parity in (0, 1):
        assignment: Dict[int, SortOrder] = {}
        total = 0
        for path in _parity_paths(root, parity):
            result = path_order([n.attrs for n in path])
            total += result.benefit
            for node, perm in zip(path, result.permutations):
                assignment[node.node_id] = perm
        solutions[parity] = (total, assignment)

    even_benefit, odd_benefit = solutions[0][0], solutions[1][0]
    parity = 1 if odd_benefit >= even_benefit else 0
    _, assignment = solutions[parity]
    for node in root.walk():
        if node.node_id not in assignment:
            assignment[node.node_id] = arbitrary_permutation(node.attrs)
    return TreeApproxResult(
        assignment=assignment,
        benefit=tree_benefit(root, assignment),
        chosen_parity="odd" if parity == 1 else "even",
        odd_benefit=odd_benefit,
        even_benefit=even_benefit,
    )
