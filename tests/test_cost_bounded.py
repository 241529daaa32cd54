"""Cost-bounded (branch-and-bound) search invariants and regression
tests for the strategy-flag, sort-capacity and union-stats bugfixes."""

import dataclasses
import math
import random

import pytest

from repro.core.interesting import (
    PostgresHeuristicStrategy,
    STRATEGY_VARIANTS,
    make_strategy,
)
from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import ExecutionContext
from repro.logical import Query, Union
from repro.logical.algebra import OrderBy
from repro.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.pipeline import PhysicalSelection, run_pre_check
from repro.storage import Catalog, Schema, SystemParameters, TableStats
from repro.workloads import query5, trading_stats_catalog
from tests.conftest import fig16_cases, sort_rows


def _run_goal(cat, query, strategy, prune):
    expr = query.expr
    required = EMPTY_ORDER
    if isinstance(expr, OrderBy):
        required, expr = expr.order, expr.child
    config = OptimizerConfig(strategy=strategy, cost_bound_pruning=prune)
    run = PhysicalSelection(cat, expr, make_strategy(strategy), config)
    plan = run.optimize_goal(expr, required)
    return plan, run


class TestBranchAndBound:
    """Pruning must never change the chosen plan, only the effort."""

    #: Goals the bounded PYRO-O search examines on Fig. 16 Q3-Q6, exactly.
    BOUNDED_GOALS = {"Q3": 17, "Q4": 9, "Q5": 17, "Q6": 6}

    @pytest.mark.parametrize("strategy", ["pyro-o", "pyro-e"])
    def test_same_cost_fewer_goals_on_bench_queries(self, strategy):
        reductions = 0
        for name, cat, query in fig16_cases():
            pruned_plan, pruned_run = _run_goal(cat, query, strategy, True)
            exact_plan, exact_run = _run_goal(cat, query, strategy, False)
            assert pruned_plan.total_cost == pytest.approx(
                exact_plan.total_cost, rel=1e-12), (strategy, name)
            assert pruned_plan.signature() == exact_plan.signature(), (
                strategy, name)
            assert pruned_run.goals_examined <= exact_run.goals_examined, (
                strategy, name)
            if strategy == "pyro-o":
                assert pruned_run.goals_examined == self.BOUNDED_GOALS[name]
            if pruned_run.goals_examined < exact_run.goals_examined:
                reductions += 1
        # At least one bench query must show an actual effort reduction.
        assert reductions >= 1, strategy

    def test_exhausted_budget_skips_goal(self):
        cat = trading_stats_catalog()
        q = query5()
        _, run = _run_goal(cat, q, "pyro-o", True)
        expr = q.expr.child if isinstance(q.expr, OrderBy) else q.expr
        fresh = PhysicalSelection(cat, expr, make_strategy("pyro-o"),
                                OptimizerConfig())
        assert fresh.optimize_goal(expr, EMPTY_ORDER, limit=0.0) is None
        assert fresh.goals_pruned == 1
        assert fresh.goals_examined == 0
        # With a real budget the goal is searched normally and memoised.
        plan = fresh.optimize_goal(expr, EMPTY_ORDER, limit=math.inf)
        assert plan is not None
        # Memo hits are served even under an exhausted budget.
        assert fresh.optimize_goal(expr, EMPTY_ORDER, limit=0.0) is plan

    def test_enforce_honours_limit(self, ):
        cat = Catalog()
        cat.create_table(
            "r", Schema.of(("a", "int", 8), ("b", "int", 8)),
            stats=TableStats(100_000, {"a": 50, "b": 5000}),
            clustering_order=SortOrder(["a"]))
        expr = Query.table("r").expr
        run = PhysicalSelection(cat, expr, make_strategy("pyro-o"),
                              OptimizerConfig())
        scan = run.optimize_goal(expr, EMPTY_ORDER)
        group = run.groups.root
        target = group.goal(SortOrder(["b"]))[0]

        def offer(limit=math.inf):
            return run._offer(scan, target, limit, group.eq, {})
        enforced = offer()
        assert enforced is not None and enforced.op == "Sort"
        # A budget at (or below) the enforced cost rejects the candidate.
        assert offer(limit=enforced.total_cost) is None
        assert offer(limit=enforced.total_cost + 1.0) is not None

    def test_pruning_disabled_examines_like_seed(self):
        """cost_bound_pruning=False must never return None for inf limits
        and must leave goals_pruned at zero."""
        for name, cat, query in fig16_cases()[:2]:
            _, run = _run_goal(cat, query, "pyro-o", False)
            assert run.goals_pruned == 0, name


class TestFailureMemo:
    """The *first* search of a goal is bounded too; fruitless bounded
    searches leave an exact budget-infeasible marker (Columbia's
    re-search discipline) instead of being repeated."""

    @pytest.fixture
    def run_and_goal(self):
        cat = Catalog()
        cat.create_table(
            "r", Schema.of(("a", "int", 8), ("b", "int", 8)),
            stats=TableStats(500_000, {"a": 50, "b": 5000}),
            clustering_order=SortOrder(["a"]))
        expr = Query.table("r").expr
        run = PhysicalSelection(cat, expr, make_strategy("pyro-o"),
                              OptimizerConfig())
        return run, expr

    def test_bounded_first_search_fails_and_memoizes(self, run_and_goal):
        run, expr = run_and_goal
        required = SortOrder(["b"])
        # Budget far below any feasible plan: the bounded search fails...
        assert run.optimize_goal(expr, required, limit=1.0) is None
        assert run.goals_failed == 1
        assert run.goals_examined == 1
        # ...and the second request at no-larger budget is a memo hit.
        assert run.optimize_goal(expr, required, limit=1.0) is None
        assert run.failure_memo_hits == 1
        assert run.goals_examined == 1  # no second search

    def test_larger_budget_triggers_research(self, run_and_goal):
        run, expr = run_and_goal
        required = SortOrder(["b"])
        assert run.optimize_goal(expr, required, limit=1.0) is None
        plan = run.optimize_goal(expr, required, limit=math.inf)
        assert plan is not None
        assert run.goals_researched == 1
        assert run.goals_examined == 1  # distinct-goal metric unchanged
        # Success supersedes the failure marker: exact memo from now on.
        assert run.optimize_goal(expr, required, limit=0.5) is plan

    def test_memo_entries_stay_exact(self, run_and_goal):
        """A plan found under a finite budget is the true optimum."""
        run, expr = run_and_goal
        required = SortOrder(["b"])
        unbounded = PhysicalSelection(run.catalog, expr,
                                    make_strategy("pyro-o"),
                                    OptimizerConfig(cost_bound_pruning=False))
        exact = unbounded.optimize_goal(expr, required)
        bounded = run.optimize_goal(expr, required,
                                    limit=exact.total_cost + 1.0)
        assert bounded is not None
        assert bounded.total_cost == exact.total_cost
        assert bounded.signature() == exact.signature()

    def test_failure_threshold_is_tight(self, run_and_goal):
        """Failing at budget L must prove only `no plan < L`: a budget
        just above the optimum must succeed after a failure just below."""
        run, expr = run_and_goal
        required = SortOrder(["b"])
        probe = PhysicalSelection(run.catalog, expr, make_strategy("pyro-o"),
                                OptimizerConfig(cost_bound_pruning=False))
        optimum = probe.optimize_goal(expr, required).total_cost
        assert run.optimize_goal(expr, required, limit=optimum * 0.5) is None
        plan = run.optimize_goal(expr, required, limit=optimum + 1.0)
        assert plan is not None and plan.total_cost == optimum

    def test_bench_queries_unchanged_by_failure_memo(self):
        """End-to-end invariant: deepened pruning still returns the same
        plan as exhaustive search on every bench query (and records its
        extra effort in the re-search counters, not goals_examined)."""
        for name, cat, query in fig16_cases():
            pruned_plan, pruned_run = _run_goal(cat, query, "pyro-o", True)
            exact_plan, exact_run = _run_goal(cat, query, "pyro-o", False)
            assert pruned_plan.signature() == exact_plan.signature(), name
            assert pruned_plan.total_cost == pytest.approx(
                exact_plan.total_cost, rel=1e-12), name
            assert exact_run.goals_failed == 0, name
            assert exact_run.goals_researched == 0, name


class TestStrategyFlagRegression:
    """`Optimizer.__init__` must honour the registry's partial flag and
    must not mutate a caller-supplied config."""

    @pytest.fixture
    def stats_catalog(self):
        cat = Catalog()
        cat.create_table(
            "r", Schema.of(("a", "int", 8), ("b", "int", 8)),
            stats=TableStats(2_000_000, {"a": 50, "b": 5000}),
            clustering_order=SortOrder(["a"]))
        return cat

    def test_registry_flag_disables_partial(self, stats_catalog, monkeypatch):
        # A partial-disabled variant that is NOT named "pyro-o-": the old
        # string match missed it and left partial enforcers on.
        monkeypatch.setitem(STRATEGY_VARIANTS, "pyro-p-",
                            (PostgresHeuristicStrategy, False))
        opt = Optimizer(stats_catalog, strategy="pyro-p-")
        assert opt.strategy.partial_sorts is False
        plan = opt.optimize(Query.table("r").order_by("a", "b"))
        assert plan.op == "Sort"  # not PartialSort

    def test_pyro_o_minus_still_disables_partial(self, stats_catalog):
        opt = Optimizer(stats_catalog, strategy="pyro-o-")
        assert opt.strategy.partial_sorts is False

    def test_caller_config_not_mutated(self):
        config = OptimizerConfig(strategy="pyro-o-", enable_hash_join=False)
        before = dataclasses.replace(config)
        strategy, _ = run_pre_check(config)
        # The strategy carries the registry flag; the config is only read.
        assert strategy.partial_sorts is False
        assert config == before


class TestSortCapacityRegression:
    """A row wider than sort memory must degrade, not drop the input."""

    SCHEMA = Schema.of(("k1", "int", 8), ("k2", "int", 8), ("v", "int", 8))

    @pytest.fixture
    def zero_capacity_ctx(self, monkeypatch):
        ctx = ExecutionContext(params=SystemParameters(
            block_size=256, sort_memory_blocks=4))
        monkeypatch.setattr(type(ctx), "memory_capacity_rows",
                            lambda self, row_bytes: 0)
        return ctx

    def test_srs_keeps_all_rows(self, zero_capacity_ctx):
        rng = random.Random(3)
        rows = [(rng.randrange(100), rng.randrange(100), i) for i in range(300)]
        out = list(sort_rows(rows, self.SCHEMA, SortOrder(["k1", "k2"]),
                             zero_capacity_ctx))
        assert len(out) == len(rows)
        assert [r[:2] for r in out] == sorted(r[:2] for r in rows)

    def test_mrs_spill_path_keeps_all_rows(self, zero_capacity_ctx):
        rng = random.Random(4)
        rows = sorted(((i % 3, rng.randrange(100), i) for i in range(300)),
                      key=lambda r: r[0])
        out = list(sort_rows(rows, self.SCHEMA, SortOrder(["k1", "k2"]),
                             zero_capacity_ctx,
                             known_prefix=SortOrder(["k1"])))
        assert len(out) == len(rows)
        assert [r[:2] for r in out] == sorted(r[:2] for r in rows)


class TestUnionStatsRegression:
    """Union cardinality must combine left AND right distinct counts."""

    @pytest.fixture
    def union_catalog(self):
        cat = Catalog()
        cat.create_table(
            "small_domain", Schema.of(("a", "int", 8), ("b", "int", 8)),
            stats=TableStats(10_000, {"a": 10, "b": 10}))
        cat.create_table(
            "large_domain", Schema.of(("c", "int", 8), ("d", "int", 8)),
            stats=TableStats(10_000, {"c": 1_000, "d": 1_000}))
        return cat

    def test_annotator_union_distincts_combined(self, union_catalog):
        query = Query.table("small_domain").union(Query.table("large_domain"))
        assert isinstance(query.expr, Union)
        plan = Optimizer(union_catalog).optimize(query)
        stats = next(node for node in plan.walk()
                     if node.op in ("MergeUnion", "UnionAll")).stats
        # Old behaviour: left-only → 10.  Fixed: 10 + 1000 (capped at N).
        assert stats.distinct_of("a") == 1_010
        assert stats.N == 20_000

    def test_planned_union_stats_combined(self, union_catalog):
        q = Query.table("small_domain").union(Query.table("large_domain"))
        plan = Optimizer(union_catalog).optimize(q)
        union_nodes = plan.find_all("MergeUnion") + plan.find_all("UnionAll")
        assert union_nodes, plan.explain()
        for node in union_nodes:
            assert node.stats.distinct_of("a") >= 1_010, node.op

    def test_union_dedup_estimate_not_capped_by_left(self, union_catalog):
        q = Query.table("small_domain").union(Query.table("large_domain"))
        plan = Optimizer(union_catalog).optimize(q)
        # The dedup output estimate must exceed what the left side alone
        # could produce (10 × 10 = 100 combinations).
        assert plan.rows > 100
