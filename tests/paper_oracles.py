"""The paper's claims as exhaustive oracles and constructions for tests.

Nothing the optimizer, the engine or the server runs needs these; the
tests hold the package's algorithms to them:

* ``P(s)`` and the ``o' + ⟨s − attrs(o')⟩`` extension of Section 5
  (:func:`all_permutations`, :func:`extend_to_set`);
* the exhaustive optimum of Problem 1 on a path, against the PathOrder
  DP of Fig. 4 (:func:`path_benefit`, :func:`brute_force_path_order`);
* the exhaustive optimum on a binary tree, against the 2-approximation
  of Section 4.2, and a nested-spec tree builder (:func:`build_tree`,
  :func:`brute_force_tree_orders`);
* Definition 5.1's benefit and the exact ``ford-min`` of Section 5.1.1
  (:func:`benefit`, :func:`ford_min`), which need every order's best
  plan cost and so are specification artefacts, not a search step;
* the NP-hardness reduction behind Theorem 4.1, from SUM-CUT (graph
  layout, [DPS02]) to Problem 1.

The reduction, step by step:

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
benefits sum to the Problem 3 objective.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence

from repro.core.path_order import PathOrderResult
from repro.core.sort_order import (
    EMPTY_ORDER,
    SortOrder,
    arbitrary_permutation,
    derived_order,
    longest_common_prefix,
)
from repro.core.tree_approx import OrderTreeNode, TreeApproxResult, tree_benefit
from repro.logical.algebra import LogicalExpr


# -- the order algebra's set constructions -----------------------------------------------
def all_permutations(attr_set: Iterable[str]) -> list[SortOrder]:
    """``P(s)``: every permutation of *attr_set* (factorial — small sets only)."""
    return list(map(derived_order,
                    itertools.permutations(arbitrary_permutation(attr_set))))


def extend_to_set(order: SortOrder, attr_set: Iterable[str]) -> SortOrder:
    """Extend *order* with an arbitrary permutation of the attributes of
    *attr_set* it does not already contain (the ``o' + ⟨S − attrs(o')⟩``
    construction used throughout Section 5)."""
    remaining = set(attr_set) - order.attrs()
    return order.concat(arbitrary_permutation(remaining))


# -- Problem 1 on a path (Fig. 4) ---------------------------------------------------------
def path_benefit(permutations: Sequence[SortOrder]) -> int:
    """Objective value of a permutation assignment along a path."""
    return sum(len(longest_common_prefix(a, b))
               for a, b in zip(permutations, permutations[1:]))


def brute_force_path_order(attr_sets: Sequence[Iterable[str]],
                           limit: int = 2_000_000) -> PathOrderResult:
    """Exhaustive optimum over all permutation assignments.

    Uses a simple DP over (position, permutation) pairs — the benefit of a
    path decomposes edge-by-edge, so exhaustive search over adjacent pairs
    suffices: ``O(Σ |P(s_i)|·|P(s_{i+1})|)``.
    """
    if not attr_sets:
        return PathOrderResult((), 0)
    perm_lists = [all_permutations(s) for s in attr_sets]
    if max(len(pl) for pl in perm_lists) ** 2 * len(perm_lists) > limit:
        raise ValueError("instance too large for brute force")

    # Forward DP: best[p] = max benefit of the prefix ending with perm p.
    best = {p: 0 for p in perm_lists[0]}
    back: list[dict[SortOrder, SortOrder]] = [{}]
    for perms in perm_lists[1:]:
        new_best: dict[SortOrder, int] = {}
        back.append({})
        for p in perms:
            top_val, top_prev = None, None
            for q, val in best.items():
                cand = val + len(longest_common_prefix(q, p))
                if top_val is None or cand > top_val:
                    top_val, top_prev = cand, q
            new_best[p] = top_val  # type: ignore[assignment]
            back[-1][p] = top_prev  # type: ignore[assignment]
        best = new_best

    end_perm = max(best, key=lambda p: best[p])
    value = best[end_perm]
    perms = [end_perm]
    for i in range(len(perm_lists) - 1, 0, -1):
        perms.append(back[i][perms[-1]])
    perms.reverse()
    return PathOrderResult(tuple(perms), value)


# -- Problem 1 on a binary tree (Section 4.2, Fig. 3) -------------------------------------
def build_tree(spec, _counter: Optional[list[int]] = None) -> OrderTreeNode:
    """Build an :class:`OrderTreeNode` tree from a nested spec.

    Spec grammar: ``(attrs, child_spec, child_spec)`` /
    ``(attrs, child_spec)`` / ``attrs`` where *attrs* is any iterable of
    attribute names.  Example::

        build_tree(({"a","b"}, {"a","c"}, ({"b"}, {"b","d"})))
    """
    counter = _counter if _counter is not None else [0]

    def is_spec(x) -> bool:
        return (isinstance(x, tuple) and len(x) in (2, 3)
                and not all(isinstance(e, str) for e in x))

    if is_spec(spec):
        attrs, *children = spec
        node = OrderTreeNode(counter[0], frozenset(attrs))
        counter[0] += 1
        for child_spec in children:
            node.add_child(build_tree(child_spec, counter))
        return node
    node = OrderTreeNode(counter[0], frozenset(spec))
    counter[0] += 1
    return node


def brute_force_tree_orders(root: OrderTreeNode,
                            limit: int = 2_000_000) -> TreeApproxResult:
    """Exact optimum by exhaustive enumeration (small instances only)."""
    nodes = list(root.walk())
    perm_lists = [all_permutations(n.attrs) for n in nodes]
    size = 1
    for pl in perm_lists:
        size *= max(1, len(pl))
        if size > limit:
            raise ValueError(f"instance too large for brute force ({size}+ combos)")

    best_val = -1
    best_assignment: Dict[int, SortOrder] = {}
    for combo in itertools.product(*perm_lists):
        assignment = {n.node_id: p for n, p in zip(nodes, combo)}
        val = tree_benefit(root, assignment)
        if val > best_val:
            best_val, best_assignment = val, assignment
    return TreeApproxResult(best_assignment, best_val, "exact", -1, -1)


# -- favorable orders (Section 5.1) ------------------------------------------------------
def benefit(order: SortOrder, expr: LogicalExpr,
            cbp: Callable[[LogicalExpr, SortOrder], float],
            coe: Callable[[LogicalExpr, SortOrder, SortOrder], float]) -> float:
    """Definition 5.1: ``benefit(o, e) = cbp(e, ε) + coe(e, ε, o) − cbp(e, o)``.

    *cbp* and *coe* are injected (normally the optimizer's best-plan cost
    and enforcement cost) so the definition stays independent of any one
    optimizer instance.
    """
    return (cbp(expr, EMPTY_ORDER) + coe(expr, EMPTY_ORDER, order)
            - cbp(expr, order))


def ford_min(orders_with_costs: dict[SortOrder, float],
             coe_from: Callable[[SortOrder, SortOrder], float]) -> set[SortOrder]:
    """Exact ``ford-min`` over an explicitly enumerated ``ford`` set.

    ``orders_with_costs`` maps each favorable order to ``cbp(e, o)``;
    *coe_from(o1, o2)* is the enforcement cost between orders.  Applies
    conditions (2) and (3) of Section 5.1.1: drop ``o`` when a prefix
    reaches it at no extra cost (cond. 2), or when a retained extension
    costs no more (cond. 3).
    """
    cost = orders_with_costs
    # Longest first, so condition 3 can consult already-retained
    # extensions when judging their prefixes.
    ordering = sorted(cost, key=lambda o: (-len(o), cost[o]))
    kept: set[SortOrder] = set()
    for o in ordering:
        covered = False
        for o2 in cost:
            if o2 == o:
                continue
            if o2.is_strict_prefix_of(o) and (
                    cost[o2] + coe_from(o2, o) <= cost[o]):
                covered = True  # condition 2
                break
            if o.is_strict_prefix_of(o2) and o2 in kept and cost[o2] <= cost[o]:
                covered = True  # condition 3
                break
        if not covered:
            kept.add(o)
    return kept


# -- NP-hardness (Section 4.1, Theorem 4.1) -----------------------------------------------
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
        total += sum(1 for w in placed if adj[w] & later)
    return total


def problem3_objective(graph: Graph, numbering: Sequence[str]) -> int:
    """Problem 3: Σ q_i — vertices adjacent to all of the first *i* (to MAXIMISE)."""
    adj = _normalize(graph)
    order = list(numbering)
    total = 0
    for i in range(1, len(order) + 1):
        prefix = order[:i]
        total += sum(1 for w in adj if all(w in adj[u] for u in prefix))
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
    for i in range(m):
        node = OrderTreeNode(i, internal_attrs)
        if spine:
            spine[-1].add_child(node)
        spine.append(node)
    for i, u in enumerate(vertices):
        leaf = OrderTreeNode(m + i, adj[u] or frozenset({f"_iso_{u}"}))
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
        assignment[leaf.node_id] = extend_to_set(
            spine_perm.restrict_prefix_to(leaf.attrs), leaf.attrs)
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
