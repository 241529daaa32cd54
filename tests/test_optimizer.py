"""End-to-end optimizer tests: enforcer placement, plan correctness vs
executed results, strategy dominance invariants, memoisation."""

import pytest

from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import ExecutionContext
from repro.expr import col
from repro.expr.aggregates import agg_sum, count_star
from repro.logical import Query
from repro.optimizer import Optimizer, OptimizerConfig
from repro.storage import Catalog, Schema, SystemParameters, TableStats
from tests.conftest import reference_query3

ALL_STRATEGIES = ["pyro", "pyro-p", "pyro-o", "pyro-o-", "pyro-e"]


@pytest.fixture
def stats_catalog():
    cat = Catalog()
    cat.create_table(
        "r", Schema.of(("a", "int", 8), ("b", "int", 8), ("p", "str", 80)),
        stats=TableStats(2_000_000, {"a": 50, "b": 5000}),
        clustering_order=SortOrder(["a"]))
    cat.create_table(
        "s", Schema.of(("x", "int", 8), ("y", "int", 8), ("q", "str", 60)),
        stats=TableStats(1_000_000, {"x": 50, "y": 5000}),
        clustering_order=SortOrder(["y", "x"]))
    return cat


class TestEnforcers:
    def test_satisfied_requirement_no_sort(self, stats_catalog):
        q = Query.table("r").order_by("a")
        plan = Optimizer(stats_catalog).optimize(q)
        assert plan.op in ("TableScan", "ClusteringIndexScan")

    def test_partial_sort_enforcer_used(self, stats_catalog):
        q = Query.table("r").order_by("a", "b")
        plan = Optimizer(stats_catalog).optimize(q)
        assert plan.op == "PartialSort"
        assert plan.arg("prefix") == SortOrder(["a"])
        assert plan.children[0].op == "TableScan"

    def test_full_sort_when_no_prefix(self, stats_catalog):
        q = Query.table("r").order_by("b")
        plan = Optimizer(stats_catalog).optimize(q)
        assert plan.op == "Sort"

    def test_partial_disabled_uses_full_sort(self, stats_catalog):
        q = Query.table("r").order_by("a", "b")
        plan = Optimizer(stats_catalog, strategy="pyro-o-").optimize(q)
        assert plan.op == "Sort"

    def test_partial_sort_cheaper_than_full(self, stats_catalog):
        q = Query.table("r").order_by("a", "b")
        partial = Optimizer(stats_catalog).optimize(q).total_cost
        full = Optimizer(stats_catalog, strategy="pyro-o-").optimize(q).total_cost
        assert partial < full

    def test_fd_reduced_requirement(self):
        cat = Catalog()
        cat.create_table(
            "t", Schema.of("k1", "k2", "v"),
            stats=TableStats(10_000, {"k1": 100, "k2": 100}),
            clustering_order=SortOrder(["k1", "k2"]),
            primary_key=["k1", "k2"])
        # ORDER BY (k1, k2, v): v is determined by the key → no sort at all.
        plan = Optimizer(cat).optimize(Query.table("t").order_by("k1", "k2", "v"))
        assert plan.op in ("TableScan", "ClusteringIndexScan")


class TestStrategyDominance:
    """Cost invariants that must hold query-independently."""

    def queries(self, cat):
        yield Query.table("r").join("s", on=[("a", "x"), ("b", "y")]).order_by("a")
        yield (Query.table("r").join("s", on=[("a", "x"), ("b", "y")])
               .group_by(["a", "b"], count_star("n")))
        yield Query.table("r").join("s", on=[("b", "y"), ("a", "x")])

    def test_pyro_e_lower_bound(self, stats_catalog):
        """Exhaustive enumeration is never beaten by any other strategy."""
        for q in self.queries(stats_catalog):
            exhaustive = Optimizer(stats_catalog, strategy="pyro-e",
                                   refine=False).optimize(q).total_cost
            for s in ("pyro", "pyro-p", "pyro-o"):
                other = Optimizer(stats_catalog, strategy=s,
                                  refine=False).optimize(q).total_cost
                assert exhaustive <= other * (1 + 1e-9), (s, q)

    def test_pyro_o_at_least_as_good_as_arbitrary(self, stats_catalog):
        for q in self.queries(stats_catalog):
            pyro_o = Optimizer(stats_catalog, strategy="pyro-o",
                               refine=False).optimize(q).total_cost
            pyro = Optimizer(stats_catalog, strategy="pyro",
                             refine=False).optimize(q).total_cost
            assert pyro_o <= pyro * (1 + 1e-9)

    def test_partial_sort_never_hurts(self, stats_catalog):
        for q in self.queries(stats_catalog):
            with_partial = Optimizer(stats_catalog, strategy="pyro-o",
                                     refine=False).optimize(q).total_cost
            without = Optimizer(stats_catalog, strategy="pyro-o-",
                                refine=False).optimize(q).total_cost
            assert with_partial <= without * (1 + 1e-9)

    def test_refinement_never_regresses(self, stats_catalog):
        for q in self.queries(stats_catalog):
            for s in ALL_STRATEGIES:
                unrefined = Optimizer(stats_catalog, strategy=s,
                                      refine=False).optimize(q).total_cost
                refined = Optimizer(stats_catalog, strategy=s,
                                    refine=True).optimize(q).total_cost
                assert refined <= unrefined * (1 + 1e-9)


class TestPlanExecution:
    """Every strategy's plan must produce the same, correct result."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_query3_results_identical(self, tpch_mini, query3, strategy):
        plan = Optimizer(tpch_mini, strategy=strategy).optimize(query3)
        ctx = ExecutionContext(tpch_mini, check_orders=True)
        rows = plan.execute(tpch_mini, ctx)
        expected = reference_query3(tpch_mini)
        assert sorted(rows) == sorted(expected)
        partkeys = [r[1] for r in rows]
        assert partkeys == sorted(partkeys)  # ORDER BY ps_partkey honoured

    def test_join_plan_executes(self, small_catalog):
        q = (Query.table("left").join("right", on=[("a", "c"), ("b", "d")])
             .select("a", "b", "x", "y").order_by("a", "b"))
        plan = Optimizer(small_catalog).optimize(q)
        rows = plan.execute(small_catalog,
                            ExecutionContext(small_catalog, check_orders=True))
        lrows = small_catalog.table("left").rows
        rrows = small_catalog.table("right").rows
        expected = sorted((l[0], l[1], l[2], r[2]) for l in lrows for r in rrows
                          if (l[0], l[1]) == (r[0], r[1]))
        assert sorted(rows) == expected

    def test_distinct_plan(self, small_catalog):
        q = Query.table("left").select("a", "b").distinct()
        plan = Optimizer(small_catalog).optimize(q)
        rows = plan.execute(small_catalog)
        expected = {(r[0], r[1]) for r in small_catalog.table("left").rows}
        assert set(rows) == expected
        assert len(rows) == len(expected)

    def test_union_plan(self, small_catalog):
        q = Query.table("left").select("a", "b").union(
            Query.table("right").select("c", "d"))
        plan = Optimizer(small_catalog).optimize(q)
        rows = plan.execute(small_catalog)
        l = {(r[0], r[1]) for r in small_catalog.table("left").rows}
        r = {(x[0], x[1]) for x in small_catalog.table("right").rows}
        assert set(rows) == l | r
        assert len(rows) == len(l | r)

    def test_limit_plan(self, small_catalog):
        q = Query.table("left").order_by("a", "b").limit(5)
        plan = Optimizer(small_catalog).optimize(q)
        rows = plan.execute(small_catalog)
        assert len(rows) == 5
        keys = [(r[0], r[1]) for r in rows]
        assert keys == sorted((r[0], r[1])
                              for r in small_catalog.table("left").rows)[:5]

    def test_left_outer_join(self, small_catalog):
        q = Query.table("left").left_outer_join("right", on=[("a", "c"),
                                                             ("b", "d")])
        plan = Optimizer(small_catalog).optimize(q)
        rows = plan.execute(small_catalog)
        lrows = small_catalog.table("left").rows
        rrows = small_catalog.table("right").rows
        expected = []
        for l in lrows:
            matches = [r for r in rrows if (l[0], l[1]) == (r[0], r[1])]
            if matches:
                expected.extend(l + r for r in matches)
            else:
                expected.append(l + (None, None, None))
        assert sorted(rows, key=repr) == sorted(expected, key=repr)


class TestPlanStructure:
    def test_covering_index_chosen_when_narrow(self, tpch_mini, query3):
        plan = Optimizer(tpch_mini, enable_hash_join=False,
                         enable_hash_aggregate=False).optimize(query3)
        scans = plan.find_all("CoveringIndexScan")
        assert len(scans) == 2  # both sides read from covering indexes

    def test_merge_join_on_suppkey_first(self, query3):
        """Paper Fig. 10(b): the cost-based choice is (suppkey, partkey),
        exploiting both covering indexes' partial order."""
        from repro.workloads import add_query3_indexes, tpch_stats_catalog
        cat = tpch_stats_catalog()
        add_query3_indexes(cat)
        plan = Optimizer(cat, enable_hash_join=False,
                         enable_hash_aggregate=False).optimize(query3)
        joins = plan.find_all("MergeJoin")
        assert len(joins) == 1
        assert joins[0].order.as_tuple in (("ps_suppkey", "ps_partkey"),
                                           ("l_suppkey", "l_partkey"))
        partial_sorts = plan.find_all("PartialSort")
        assert len(partial_sorts) >= 2

    def test_memo_reuses_subgoals(self, stats_catalog):
        from repro.logical import Annotator
        from repro.optimizer.pipeline import PhysicalSelection
        from repro.core.interesting import make_strategy
        q = Query.table("r").join("s", on=[("a", "x"), ("b", "y")])
        strategy, _ = make_strategy("pyro-e")
        run = PhysicalSelection(stats_catalog, q.expr, strategy, OptimizerConfig())
        run.optimize_goal(q.expr, EMPTY_ORDER)
        first = run.goals_examined
        run.optimize_goal(q.expr, EMPTY_ORDER)
        assert run.goals_examined == first  # fully memoised

    def test_output_schema_matches_logical(self, tpch_mini, query3):
        plan = Optimizer(tpch_mini).optimize(query3)
        assert plan.schema.names == ("ps_suppkey", "ps_partkey",
                                     "ps_availqty", "sum_qty")

    def test_explain_contains_costs(self, stats_catalog):
        q = Query.table("r").order_by("a", "b")
        text = Optimizer(stats_catalog).optimize(q).explain()
        assert "cost=" in text and "PartialSort" in text

    def test_unknown_option_rejected(self, stats_catalog):
        from repro.service import QuerySession
        # Options the config once had are unknown like any other.
        for option in ("bogus_flag", "shard_aware_enforcers",
                       "enable_nested_loops",
                       "use_favorable_orders_everywhere"):
            with pytest.raises(TypeError):
                Optimizer(stats_catalog, **{option: True})
            with pytest.raises(TypeError):
                QuerySession(stats_catalog, **{option: True})

    def test_strategy_is_an_override_next_to_a_config(self, stats_catalog):
        """``strategy=`` applies like any other override when ``config=``
        is also passed (it was silently dropped), through all three
        constructors; absent, the config's own strategy stands."""
        from repro.service import QueryServer, QuerySession
        config = OptimizerConfig(refine=False)
        made = {
            "optimizer": Optimizer(stats_catalog, "pyro-e", config=config),
            "session": QuerySession(stats_catalog, strategy="pyro-e",
                                    config=config).optimizer,
        }
        with QueryServer(stats_catalog, strategy="pyro-e",
                         config=config) as server:
            # Every execution slot's session, not just one of them.
            made.update((f"server slot {i}", session.optimizer)
                        for i, session in enumerate(server._sessions))
        assert {name: (o.config.strategy, o.config.refine)
                for name, o in made.items()} == dict.fromkeys(
                    made, ("pyro-e", False))
        assert config.strategy == "pyro-o"  # the caller's stays untouched
        kept = Optimizer(stats_catalog, config=OptimizerConfig(strategy="pyro-p"))
        assert kept.config.strategy == "pyro-p"

    def test_cost_of_helper(self, stats_catalog):
        q = Query.table("r").order_by("b")
        assert Optimizer(stats_catalog).cost_of(q) > 0


class TestPerSubtreeEquivalenceScoping:
    """Equivalence classes, like FDs since the fuzz-suite fixes, must be
    scoped to the subtree they were established in: a join equality in
    one union branch says nothing about a name-colliding sibling branch.
    The logical trees here are built with raw algebra nodes — the Query
    builder cannot express two branches that reuse column names."""

    def colliding_union(self):
        """Left branch joins on a = c (so a ≡ c holds *there*); the right
        branch scans t3(a, c) where a ≠ c on most rows and only c is
        clustered.  ORDER BY (a, c) must fully sort the right branch."""
        import random

        from repro.expr.expressions import JoinPredicate
        from repro.logical.algebra import (
            BaseRelation,
            Join,
            OrderBy,
            Project,
            Union,
        )

        rng = random.Random(7)
        catalog = Catalog()
        catalog.create_table(
            "t1", Schema.of(("a", "int", 8), ("b", "int", 8)),
            rows=[(i % 6, i) for i in range(30)],
            clustering_order=SortOrder(["a"]))
        catalog.create_table(
            "t2", Schema.of(("c", "int", 8), ("d", "int", 8)),
            rows=[(i % 6, i * 2) for i in range(12)],
            clustering_order=SortOrder(["c"]))
        catalog.create_table(
            "t3", Schema.of(("a", "int", 8), ("c", "int", 8)),
            rows=sorted([(rng.randrange(8), i % 7) for i in range(40)],
                        key=lambda r: r[1]),
            clustering_order=SortOrder(["c"]))
        left = Project(Join(BaseRelation("t1"), BaseRelation("t2"),
                            JoinPredicate([("a", "c")])), ("a", "c"))
        expr = OrderBy(Union(left, BaseRelation("t3")),
                       SortOrder(["a", "c"]))
        lrows = {(a, c) for a, _ in catalog.table("t1").rows
                 for c, _ in catalog.table("t2").rows if a == c}
        expected = sorted(lrows | set(catalog.table("t3").rows))
        return catalog, expr, expected

    def test_name_colliding_sibling_union_branches(self):
        """Regression: with whole-query classes the sibling branch's
        a ≡ c reduced the root requirement to (a) and the right branch
        was never sorted on c."""
        catalog, expr, expected = self.colliding_union()
        plan = Optimizer(catalog).optimize(expr)
        ctx = ExecutionContext(catalog, check_orders=True)
        assert plan.execute(catalog, ctx) == expected

    def test_equivalence_valid_in_both_branches_still_transfers(self):
        """The intersection must not throw away facts that do hold in
        both branches: identical join branches keep a ≡ c, so neither
        branch re-sorts for ORDER BY (a, c)."""
        from repro.expr.expressions import JoinPredicate
        from repro.logical.algebra import (
            BaseRelation,
            Join,
            OrderBy,
            Project,
            Union,
        )

        catalog = Catalog()
        catalog.create_table(
            "t1", Schema.of(("a", "int", 8), ("b", "int", 8)),
            rows=[(i % 6, i) for i in range(30)],
            clustering_order=SortOrder(["a"]))
        catalog.create_table(
            "t2", Schema.of(("c", "int", 8), ("d", "int", 8)),
            rows=[(i % 6, i * 2) for i in range(12)],
            clustering_order=SortOrder(["c"]))

        def branch():
            return Project(Join(BaseRelation("t1"), BaseRelation("t2"),
                                JoinPredicate([("a", "c")])), ("a", "c"))

        expr = OrderBy(Union(branch(), branch()), SortOrder(["a", "c"]))
        plan = Optimizer(catalog).optimize(expr)
        assert plan.find_all("Sort") == []  # both branches deliver (a)≡(a, c)
        ctx = ExecutionContext(catalog, check_orders=True)
        rows = plan.execute(catalog, ctx)
        assert rows == sorted({(a, c) for a, _ in catalog.table("t1").rows
                               for c, _ in catalog.table("t2").rows
                               if a == c})

    def test_union_intersects_fds_across_branches(self):
        """query_fds at a Union keeps only dependencies both branches
        entail (cross-branch FD leakage at the union level)."""
        from repro.logical.algebra import BaseRelation, Select, Union
        from repro.logical.fds import query_fds

        catalog, _, _ = self.colliding_union()
        left = Select(BaseRelation("t3"), col("a").eq(3))  # a constant here
        right = BaseRelation("t3")
        union_fds = query_fds(catalog, Union(left, right))
        assert union_fds.reduce_order(SortOrder(["a", "c"])) == \
            SortOrder(["a", "c"])  # the sibling's constant must not leak
        left_fds = query_fds(catalog, left)
        assert left_fds.reduce_order(SortOrder(["a", "c"])) == \
            SortOrder(["c"])  # within the branch it still applies


class TestReducedMergeKeys:
    """An order strategy reduces a merge join's permutation under the
    query's equivalences: ``a ⋈ b ON a0=b0`` makes ``a0 ≡ b0``, so the
    join above it on ``a0=c0 AND b0=c1`` may be handed the one-attribute
    key ``(a0)`` — enough to sort the left input on, but the right
    input's ``c0`` and ``c1`` are two columns and both pairs are still
    the predicate.  An inner join enforces the pair the key leaves out
    with a filter on the merged rows; an outer join decides matches on
    every pair, so there the pair rejoins the merge key."""

    @pytest.fixture
    def catalog(self, rng):
        cat = Catalog()
        for name, n in (("a", 30), ("b", 30), ("c", 40)):
            cols = [f"{name}{i}" for i in range(3)]
            cat.create_table(
                name, Schema.of(*[(c, "int", 8) for c in cols]),
                rows=[tuple(rng.randrange(4) for _ in cols) for _ in range(n)])
        return cat

    @staticmethod
    def by_definition(catalog, how):
        """``(a ⋈ b) ⋈how c`` row pair by row pair, NULLS FIRST."""
        a, b, c = (catalog.table(t).rows for t in "abc")
        left = [x + y for x in a for y in b if x[0] == y[0]]
        out, matched = [], set()
        for row in left:
            hits = [j for j, z in enumerate(c)
                    if row[0] == z[0] and row[3] == z[1]]
            matched.update(hits)
            out += [row + c[j] for j in hits]
            if not hits and how != "inner":
                out.append(row + (None,) * 3)
        if how == "full":
            out += [(None,) * 6 + z for j, z in enumerate(c)
                    if j not in matched]
        return sorted(out, key=lambda r: [(v is not None, v or 0) for v in r])

    @pytest.mark.parametrize("how", ["inner", "left", "full"])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_every_pair_is_enforced(self, catalog, strategy, how):
        q = (Query.table("a").join("b", on=[("a0", "b0")])
             .join("c", on=[("a0", "c0"), ("b0", "c1")], how=how)
             .order_by("a0", "a1", "a2", "b0", "b1", "b2", "c0", "c1", "c2"))
        plan = Optimizer(catalog, strategy=strategy,
                         enable_hash_join=False).optimize(q)
        ctx = ExecutionContext(catalog, check_orders=True)
        assert plan.execute(catalog, ctx) == self.by_definition(catalog, how)
        top = max(plan.find_all("MergeJoin"), key=lambda node: node.total_cost)
        if strategy.startswith("pyro-o") and how == "inner":
            assert len(top.arg("predicate").pairs) == 1
            residual, = [node for node in plan.walk()
                         if node.op == "Filter" and node.children[0] is top]
            assert repr(residual.arg("predicate")) == "b0 = c1"
            # The merge is estimated on its key, the filter on the join.
            assert residual.rows < top.rows
        else:
            assert len(top.arg("predicate").pairs) == 2

    def test_builder_refuses_an_outer_join_on_a_reduced_key(self, catalog):
        from repro.logical.algebra import BaseRelation, Join
        from repro.expr.expressions import JoinPredicate
        from repro.optimizer.manual import PlanBuilder

        builder = PlanBuilder(catalog)
        a, c = builder.table_scan("a"), builder.table_scan("c")
        logical = Join(BaseRelation("a"), BaseRelation("c"),
                       JoinPredicate([("a0", "c0"), ("a1", "c1")]), "left")
        with pytest.raises(ValueError, match="only an inner join"):
            builder.merge_join(a, c, [("a0", "c0")], "left", logical=logical)
