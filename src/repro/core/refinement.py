"""Phase-2 plan refinement (Section 5.2.2).

After the cost-based search (phase 1) fixes a best plan, the
permutations chosen for *free attributes* — join attributes that were
not part of any input favorable order and were therefore ordered
arbitrarily — are reworked so adjacent merge joins share the longest
possible common prefixes.

For each merge-join node ``v_i`` with chosen permutation ``p_i``:

* ``q_i`` — the input favorable order with the longest ``|p_i ∧ q_i|``;
* ``f_i = attrs(p_i − (p_i ∧ q_i))`` — the free attributes.

A binary tree over the plan's merge-join nodes (intermediate operators
contracted) with node sets ``f_i`` is handed to the 2-approximation of
Section 4.2; each join's new permutation is ``(p_i ∧ q_i)`` followed by
the reworked free-attribute order.  The plan is then re-optimized with
those permutations forced, and kept only if its estimated cost does not
regress — refinement is sound by construction.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from ..logical.algebra import Join, LogicalExpr
from .favorable import FavorableOrders
from .sort_order import EMPTY_ORDER, SortOrder, longest_common_prefix
from .tree_approx import OrderTreeNode, approximate_tree_orders

if TYPE_CHECKING:  # pragma: no cover
    from ..optimizer.pipeline.groups import GroupTable
    from ..optimizer.plans import PhysicalPlan


def merge_join_permutation(plan_node: "PhysicalPlan") -> SortOrder:
    """The key permutation a merge-join plan node was built with.

    Read from the predicate's pair order (position *i* of the sort keys
    is pair *i*), not from ``plan_node.order`` — a FULL OUTER merge join
    guarantees no output order (NULL-padded left keys), yet still has a
    permutation phase-2 refinement can rework.
    """
    predicate = plan_node.arg("predicate")
    if predicate is not None:
        return SortOrder(predicate.left_columns)
    return plan_node.order


def collect_merge_join_tree(plan: "PhysicalPlan") -> Optional[OrderTreeNode]:
    """Contract a physical plan to its merge-join skeleton.

    Returns the root :class:`OrderTreeNode` (payload = plan node), or
    ``None`` when the plan has fewer than two merge joins or its join
    topology is not binary after contraction (e.g. unions of joins).
    """
    counter = [0]

    def topmost_joins(node: "PhysicalPlan") -> list["PhysicalPlan"]:
        if node.op == "MergeJoin":
            return [node]
        found: list["PhysicalPlan"] = []
        for child in node.children:
            found.extend(topmost_joins(child))
        return found

    def build(plan_node: "PhysicalPlan") -> Optional[OrderTreeNode]:
        tree_node = OrderTreeNode(counter[0],
                                  frozenset(merge_join_permutation(plan_node)),
                                  payload=plan_node)
        counter[0] += 1
        child_joins: list["PhysicalPlan"] = []
        for child in plan_node.children:
            child_joins.extend(topmost_joins(child))
        if len(child_joins) > 2:
            return None
        for cj in child_joins:
            sub = build(cj)
            if sub is None:
                return None
            tree_node.add_child(sub)
        return tree_node

    roots = topmost_joins(plan)
    if len(roots) != 1:
        return None
    root = build(roots[0])
    if root is None or sum(1 for _ in root.walk()) < 2:
        return None
    return root


def free_attributes(plan_node: "PhysicalPlan", favorable: FavorableOrders,
                    eq) -> tuple[SortOrder, frozenset[str]]:
    """``(p_i ∧ q_i, f_i)`` for one merge-join plan node."""
    logical: Optional[Join] = plan_node.arg("logical")
    perm: SortOrder = merge_join_permutation(plan_node)
    best_prefix = EMPTY_ORDER
    if logical is not None:
        for source in (logical.left, logical.right):
            for q in favorable.afm(source):
                prefix = longest_common_prefix(perm, q, eq)
                if len(prefix) > len(best_prefix):
                    best_prefix = prefix
    free = perm.attrs() - best_prefix.attrs()
    return best_prefix, frozenset(free)


def refine_plan(plan: "PhysicalPlan", groups: "GroupTable",
                replan: Callable[[dict[LogicalExpr, SortOrder]], "PhysicalPlan"]
                ) -> "PhysicalPlan":
    """Apply phase-2 refinement; returns the original plan unless the
    reworked permutations strictly improve the estimated cost.

    *groups* is the group table of the search that produced *plan*: its
    favorable orders are read here.  *replan* re-optimizes that search's
    tree with the reworked permutations forced (the caller re-searches on
    *groups*, under the phase-1 configuration, so the refined plan
    competes under the same shard-aware enforcer placement as the plan
    it challenges); it is called at most once.
    """
    skeleton = collect_merge_join_tree(plan)
    if skeleton is None:
        return plan

    favorable = groups.favorable
    eq = groups.annotator.eq

    fixed_prefixes: dict[int, SortOrder] = {}
    logical_of: dict[int, LogicalExpr] = {}
    any_free = False
    for node in skeleton.walk():
        plan_node: "PhysicalPlan" = node.payload  # type: ignore[assignment]
        prefix, free = free_attributes(plan_node, favorable, eq)
        fixed_prefixes[node.node_id] = prefix
        logical = plan_node.arg("logical")
        if logical is not None:
            logical_of[node.node_id] = logical
        if free:
            any_free = True
        node.attrs = free  # rework only the free attributes
    if not any_free:
        return plan

    approx = approximate_tree_orders(skeleton)
    forced: dict[LogicalExpr, SortOrder] = {}
    for node in skeleton.walk():
        logical = logical_of.get(node.node_id)
        if logical is None:
            continue
        new_perm = fixed_prefixes[node.node_id].concat(
            approx.assignment[node.node_id])
        forced[logical] = new_perm

    if not forced:
        return plan
    refined = replan(forced)
    return refined if refined.total_cost < plan.total_cost else plan
