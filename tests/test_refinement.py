"""Phase-2 plan refinement tests (Section 5.2.2, Figure 6 / Query 4)."""

import pytest

from repro.core.refinement import (
    collect_merge_join_tree,
    merge_join_permutation,
    refine_plan,
)
from repro.core.sort_order import SortOrder, longest_common_prefix
from repro.logical import Query
from repro.optimizer import Optimizer
from repro.storage import Catalog, Schema, SystemParameters, TableStats
from repro.workloads import query4, r_tables_stats_catalog


@pytest.fixture
def fig6_catalog():
    """The paper's Figure 6 setup: R1..R4 all clustered on attribute a,
    no other favorable orders."""
    cat = Catalog(SystemParameters(sort_memory_blocks=100))
    for i, extra in ((1, ["b", "c"]), (2, ["d", "h"]), (3, ["e", "h"]),
                     (4, ["h", "x"])):
        cols = [(f"r{i}_a", "int", 8)] + [(f"r{i}_{c}", "int", 8) for c in extra] \
            + [(f"r{i}_pad", "str", 60)]
        cat.create_table(
            f"r{i}", Schema.of(*cols),
            stats=TableStats(500_000, {f"r{i}_a": 20}),
            clustering_order=SortOrder([f"r{i}_a"]))
    return cat


def fig6_query():
    """R1 ⋈ R2 on (a,b,c-ish) …: three joins sharing only attribute a.

    Mirrors Figure 6: join attribute sets {a,h,d}, {a,h,e} and {a,b,c,h}
    where everything beyond the clustering attribute a is free.
    """
    j1 = Query.table("r1").join(
        "r2", on=[("r1_a", "r2_a"), ("r1_b", "r2_d"), ("r1_c", "r2_h")])
    j2 = j1.join(
        "r3", on=[("r1_a", "r3_a"), ("r1_b", "r3_e"), ("r1_c", "r3_h")])
    return j2


class TestCollectSkeleton:
    def test_chain_of_joins(self, fig6_catalog):
        plan = Optimizer(fig6_catalog, enable_hash_join=False,
                         refine=False).optimize(fig6_query())
        tree = collect_merge_join_tree(plan)
        assert tree is not None
        assert sum(1 for _ in tree.walk()) == 2
        assert len(tree.children) == 1

    def test_single_join_returns_none(self, fig6_catalog):
        q = Query.table("r1").join("r2", on=[("r1_a", "r2_a")])
        plan = Optimizer(fig6_catalog, enable_hash_join=False,
                         refine=False).optimize(q)
        assert collect_merge_join_tree(plan) is None

    def test_no_merge_joins_returns_none(self, fig6_catalog):
        plan = Optimizer(fig6_catalog, refine=False).optimize(
            Query.table("r1").order_by("r1_b"))
        assert collect_merge_join_tree(plan) is None


def inner_query4():
    """Query 4's join chain with INNER joins: order propagates between
    the joins, so the Figure 14 prefix-sharing effect is observable."""
    return (Query.table("r1")
            .join("r2", on=[("r1_c5", "r2_c5"), ("r1_c4", "r2_c4"),
                            ("r1_c3", "r2_c3")])
            .join("r3", on=[("r1_c1", "r3_c1"), ("r1_c4", "r3_c4"),
                            ("r1_c5", "r3_c5")]))


class TestRefinementEffect:
    def test_inner_chain_joins_share_prefix_after_refinement(self):
        """The headline Figure 14 effect: after phase 2 the two chained
        joins share the (c4, c5) prefix."""
        cat = r_tables_stats_catalog(
            params=SystemParameters(sort_memory_blocks=250))
        plan = Optimizer(cat, enable_hash_join=False).optimize(inner_query4())
        joins = plan.find_all("MergeJoin")
        assert len(joins) == 2
        upper, lower = joins
        shared = longest_common_prefix(upper.order, lower.order)
        assert len(shared) >= 2, (upper.order, lower.order)
        common_names = {a.split("_")[-1] for a in shared}
        assert common_names == {"c4", "c5"}

    def test_query4_full_outer_joins_guarantee_no_order(self):
        """FULL OUTER merge joins pad left key columns of unmatched right
        rows with NULLs mid-stream, so they guarantee no output order: the
        plan must carry an explicit sort between the chained joins instead
        of silently relying on a violated order (regression for the bug
        the plan-parity fuzz suite guards against).  The permutations stay
        recoverable for refinement via the predicate pair order."""
        cat = r_tables_stats_catalog(
            params=SystemParameters(sort_memory_blocks=250))
        plan = Optimizer(cat, enable_hash_join=False).optimize(query4())
        joins = plan.find_all("MergeJoin")
        assert len(joins) == 2
        assert all(not j.order for j in joins)
        assert all(len(merge_join_permutation(j)) == 3 for j in joins)
        # The upper join's left input re-establishes order from ε.
        upper = joins[0]
        left_input = upper.children[0]
        assert left_input.op == "Sort"
        assert left_input.children[0].op == "MergeJoin"

    def test_refined_no_worse_all_strategies(self):
        cat = r_tables_stats_catalog(
            params=SystemParameters(sort_memory_blocks=250))
        for s in ("pyro", "pyro-p", "pyro-o", "pyro-e"):
            refined, unrefined = (
                Optimizer(cat, strategy=s, enable_hash_join=False,
                          refine=refine).optimize(query4()).total_cost
                for refine in (True, False))
            assert refined <= unrefined * (1 + 1e-9)

    def test_refinement_improves_arbitrary_choice(self):
        """With no favorable orders anywhere, phase 1 picks arbitrary
        permutations; phase 2 must recover the shared prefix."""
        cat = r_tables_stats_catalog(
            params=SystemParameters(sort_memory_blocks=250))
        refined, unrefined = (
            Optimizer(cat, strategy="pyro", enable_hash_join=False,
                      refine=refine).optimize(inner_query4()).total_cost
            for refine in (True, False))
        assert refined < unrefined

    def test_fig6_chain_recovers_shared_prefix(self, fig6_catalog):
        plan = Optimizer(fig6_catalog, enable_hash_join=False).optimize(
            fig6_query())
        joins = plan.find_all("MergeJoin")
        assert len(joins) == 2
        shared = longest_common_prefix(joins[0].order, joins[1].order,
                                       None)
        # Clustering attribute a is the fixed prefix; free attrs reworked
        # so the joins agree beyond it.
        assert len(joins[0].order) == 3
        assert len(shared) >= 2

    def test_forced_orders_api(self, fig6_catalog):
        q = fig6_query()
        opt = Optimizer(fig6_catalog, enable_hash_join=False, refine=False)
        base = opt.optimize(q)
        join_expr = q.expr  # outermost Join node
        forced = {join_expr: SortOrder(["r1_c", "r1_b", "r1_a"])}
        forced_plan = opt.optimize_with_forced_orders(
            join_expr, SortOrder(()), forced)
        top_join = forced_plan.find_all("MergeJoin")[0]
        assert top_join.order == SortOrder(["r1_c", "r1_b", "r1_a"])
        assert forced_plan.total_cost >= base.total_cost * 0.99  # sanity
