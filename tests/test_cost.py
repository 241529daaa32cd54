"""Cost model tests: the coe() formulas of Section 3.2 and operator costs."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sort_order import AttributeEquivalence, EMPTY_ORDER, SortOrder
from repro.expr.aggregates import count_star
from repro.optimizer.cost import CostModel
from repro.storage import Schema, StatsView, SystemParameters

SCHEMA = Schema.of(("a", "int", 40), ("b", "int", 40), ("c", "int", 20))


def make(params=None, eq=None):
    return CostModel(params or SystemParameters(), eq)


def stats(n, distinct=None):
    return StatsView(SCHEMA, n, distinct or {})


class TestFullSortFormula:
    def test_in_memory_is_cpu_only(self):
        cm = make(SystemParameters(sort_memory_blocks=10_000))
        s = stats(10_000, {"a": 100})
        cost = cm.coe(s, EMPTY_ORDER, SortOrder(["a"]))
        assert cost == pytest.approx(cm.cpu_sort(10_000))

    def test_external_uses_paper_formula(self):
        params = SystemParameters(sort_memory_blocks=10)
        cm = make(params)
        s = stats(100_000)           # 100000 rows × 100B = 2442 blocks
        B = s.B(params.block_size)
        cost = cm.coe(s, EMPTY_ORDER, SortOrder(["a"]))
        passes = math.ceil(math.log(B / 10, 9))
        expected_io = B * (2 * passes + 1)
        assert cost >= expected_io
        assert cost == pytest.approx(expected_io + cm.cpu_sort(100_000))

    def test_zero_when_satisfied(self):
        cm = make()
        s = stats(1000)
        assert cm.coe(s, SortOrder(["a", "b"]), SortOrder(["a"])) == 0.0
        assert cm.coe(s, SortOrder(["a"]), EMPTY_ORDER) == 0.0

    def test_zero_rows(self):
        assert make().coe(stats(0), EMPTY_ORDER, SortOrder(["a"])) == 0.0


class TestPartialSortFormula:
    def test_segments_divide_cost(self):
        """coe(e, o1, o2) = D · coe(segment, ε, or)."""
        params = SystemParameters(sort_memory_blocks=10)
        cm = make(params)
        s = stats(100_000, {"a": 1000})
        partial = cm.coe(s, SortOrder(["a"]), SortOrder(["a", "b"]))
        full = cm.coe(s, EMPTY_ORDER, SortOrder(["a", "b"]))
        # 1000 segments of 100 rows each fit in memory → CPU only.
        assert partial < full / 10
        assert partial == pytest.approx(1000 * cm.full_sort(100, 1.0))

    def test_partial_disabled_falls_back_to_full(self):
        cm = make()
        s = stats(50_000, {"a": 100})
        full = cm.coe(s, EMPTY_ORDER, SortOrder(["a", "b"]))
        disabled = cm.coe(s, SortOrder(["a"]), SortOrder(["a", "b"]),
                          partial_enabled=False)
        assert disabled == pytest.approx(full)

    def test_equivalence_aware_prefix(self):
        eq = AttributeEquivalence()
        eq.add_equivalence("a", "x")
        cm = make(eq=eq)
        s = stats(10_000, {"a": 100})
        via_eq = cm.coe(s, SortOrder(["x"]), SortOrder(["a", "b"]))
        direct = cm.coe(s, SortOrder(["a"]), SortOrder(["a", "b"]))
        assert via_eq == pytest.approx(direct)

    @given(st.integers(1, 6), st.integers(10, 200_000))
    @settings(max_examples=60, deadline=None)
    def test_more_segments_never_costlier(self, exp, n):
        """Deeper known prefixes (more, smaller segments) can only help."""
        cm = make(SystemParameters(sort_memory_blocks=50))
        few = stats(n, {"a": 10})
        many = stats(n, {"a": 10 ** exp})
        c_few = cm.coe(few, SortOrder(["a"]), SortOrder(["a", "b"]))
        c_many = cm.coe(many, SortOrder(["a"]), SortOrder(["a", "b"]))
        assert c_many <= c_few + 1e-6

    @given(st.integers(2, 500_000))
    @settings(max_examples=60, deadline=None)
    def test_partial_never_beats_free_and_never_exceeds_full(self, n):
        cm = make(SystemParameters(sort_memory_blocks=100))
        s = stats(n, {"a": max(2, n // 50)})
        partial = cm.coe(s, SortOrder(["a"]), SortOrder(["a", "b"]))
        full = cm.coe(s, EMPTY_ORDER, SortOrder(["a", "b"]))
        assert 0 <= partial <= full * 1.01


def builder(params=None, **tables):
    """A :class:`PlanBuilder` over stats-only tables of SCHEMA's widths,
    *tables* mapping each name to ``(rows, distinct values of its a)``;
    each table's columns carry its name as a prefix."""
    from repro.optimizer.manual import PlanBuilder
    from repro.storage import Catalog, TableStats

    catalog = Catalog(params or SystemParameters())
    for name, (rows, distinct) in tables.items():
        catalog.create_table(
            name, Schema.of(*((f"{name}_{c.name}", c.type, c.avg_size)
                              for c in SCHEMA)),
            stats=TableStats(rows, {f"{name}_a": distinct}))
    return PlanBuilder(catalog)


class TestOperatorCosts:
    """Each operator's cost, as its :class:`PlanBuilder` constructor
    writes it on the node it builds."""

    def test_scan_is_blocks(self):
        scan = builder(t=(10_000, 100)).table_scan("t")
        assert scan.self_cost == scan.stats.B(4096)

    def test_index_scan_uses_entry_width(self):
        b = builder(t=(10_000, 100))
        b.catalog.create_index("narrow", "t", SortOrder(["t_c"]))
        b.catalog.create_index("wide", "t", SortOrder(["t_c"]),
                               included=["t_a", "t_b"])
        assert b.covering_scan("t", "narrow").self_cost < \
            b.covering_scan("t", "wide").self_cost

    def test_hash_join_spill_penalty(self):
        b = builder(SystemParameters(sort_memory_blocks=5),
                    big=(100_000, 100), small=(100, 100))
        big, small = b.table_scan("big"), b.table_scan("small")
        # The build side drives the spill.
        assert b.hash_join(big, small, [("big_a", "small_a")]).self_cost > \
            b.hash_join(small, big, [("small_a", "big_a")]).self_cost

    def test_merge_join_linear(self):
        b = builder(l=(1000, 100), r=(2000, 100))
        join = b.merge_join(b.table_scan("l"), b.table_scan("r"),
                            [("l_a", "r_a")], sort_inputs=False)
        assert join.self_cost == pytest.approx(
            b.cost.cpu(1000 + 2000 + join.stats.N))

    def test_hash_aggregate_spill(self):
        def aggregate(params):
            b = builder(params, t=(100_000, 90_000))
            return b.hash_aggregate(b.table_scan("t"), ["t_a"],
                                    [count_star("n")])
        spilled = aggregate(SystemParameters(sort_memory_blocks=2))
        fit = aggregate(SystemParameters())
        assert spilled.stats.N == fit.stats.N == 90_000
        assert spilled.self_cost > fit.self_cost

    def test_cpu_translation(self):
        cm = make(SystemParameters(cpu_comparisons_per_io=100.0))
        assert cm.cpu(1000) == 10.0

    def test_cpu_sort_segments(self):
        cm = make()
        assert cm.cpu_sort(1000, segments=100) < cm.cpu_sort(1000, segments=1)
        assert cm.cpu_sort(1) == 0.0


@pytest.fixture
def gated(monkeypatch):
    """The sharded cost of each call of the search's tie-break gate,
    ``prefer_sharded``: the estimate a fan-out is decided on, then the
    plan built for the winner."""
    from repro.optimizer.pipeline import physical_selection

    calls = []
    gate = physical_selection.prefer_sharded
    monkeypatch.setattr(physical_selection, "prefer_sharded",
                        lambda sharded, unsharded: calls.append(sharded)
                        or gate(sharded, unsharded))
    return calls


class TestShardedFormulas:
    """``coe`` with the enforcer pushed below a shard fan-out: the
    per-shard enforcers, each priced on its shard's statistics, plus the
    order-preserving merge that gathers them.  The search prices a
    fan-out on the calls the per-shard ``PlanBuilder.sort`` makes, decides
    on that price, and builds the winner; these hold the plans it builds
    to the formula."""

    def test_sharded_coe_measured_equals_per_shard_sum(self):
        """Each shard's enforcer is priced on its measured statistics,
        and disjoint partitions drop the merge term entirely."""
        import test_shard_enforcers as fx

        catalog = fx.skewed_range_catalog(memory_blocks=1000)
        table = catalog.table("t")
        target = SortOrder(["k", "v"])
        _, unsharded, built = fx.placements(catalog, "t", target)
        scan = unsharded.children[0]
        cm = make(catalog.params)
        for fan_out, per_table in (("contiguous", table.shard_stats(4)),
                                   ("range", table.partition_stats())):
            views = [StatsView.of_table(table.schema, s) for s in per_table]
            gather = built[fan_out]
            assert [shard.op for shard in gather.children] == ["Sort"] * 4
            per_shard = sum(cm.coe(v, scan.order, target, partial_enabled=False)
                            for v in views)
            assert sum(shard.self_cost for shard in gather.children) == \
                pytest.approx(per_shard)
            if fan_out == "range":
                assert gather.arg("disjoint") and gather.self_cost == 0.0
            else:
                assert gather.self_cost == cm.merge_exchange(scan.stats.N, 4)

    @pytest.mark.parametrize("fan_out", ["contiguous", "range", "uniform"])
    def test_sharded_coe_prices_the_plan_enforce_builds(self, fan_out, gated):
        """The estimate the enforcer gate decides on is what the per-shard
        plan it then builds costs, and both are the chain below plus
        ``coe`` pushed below the fan-out."""
        import test_shard_enforcers as fx
        from repro.logical import Query
        from repro.service import QuerySession

        if fan_out == "range":
            catalog = fx.skewed_range_catalog(memory_blocks=1000)
            name, target = "t", SortOrder(["k", "v"])
        else:
            catalog, name, target = fx.spill_catalog(), "r", SortOrder(["c2"])
        table = catalog.table(name)
        per_table = {"contiguous": table.shard_stats(4),
                     "range": table.partition_stats(),
                     "uniform": None}[fan_out]
        if fan_out == "uniform":
            table.shard_stats = lambda shard_count: None  # unmeasured
        session = QuerySession(catalog, strategy="pyro-o-")  # SRS enforcers
        chain = session.prepare(Query.table(name)).plan
        built = session.prepare(Query.table(name).order_by(*target),
                                parallelism=4).plan
        assert built.op == "MergeExchange"
        assert {s.children[0].op for s in built.children} == {
            "RangePartitionScan" if fan_out == "range" else "ShardedScan"}

        # The gate saw the estimate, then the built plan: the same cost.
        assert gated and all(estimate == pytest.approx(built.total_cost)
                             for estimate in gated)
        views = ([StatsView.of_table(table.schema, s) for s in per_table]
                 if per_table else [chain.stats.scaled(0.25)] * 4)
        cm = make(catalog.params)
        estimate = (sum(cm.coe(v, chain.order, target, partial_enabled=False)
                        for v in views)
                    + cm.merge_exchange(chain.stats.N, 4,
                                        disjoint=fan_out == "range"))
        assert built.total_cost == pytest.approx(chain.total_cost + estimate)


class TestEnforcerPricing:
    """:meth:`PlanBuilder.sort` matches the enforcer's prefix under the
    equivalences it is handed (the search hands in the goal group's) and
    prices the enforcer under the same ones, before it builds a node."""

    ENFORCED = SortOrder(["a", "b"])

    @staticmethod
    def builder_and_child(eq=None):
        """A builder on *eq* and a scan of 10,000 rows clustered on
        ``x``: 100 ``x`` values, each a segment of a partial sort."""
        from repro.optimizer.manual import PlanBuilder
        from repro.storage import Catalog, TableStats

        catalog = Catalog(SystemParameters(sort_memory_blocks=10))
        catalog.create_table(
            "t", Schema.of(("a", "int", 40), ("b", "int", 40), ("x", "int", 20)),
            stats=TableStats(10_000, {"a": 100, "b": 1000, "x": 100}),
            clustering_order=SortOrder(["x"]))
        builder = PlanBuilder(catalog, eq)
        return builder, builder.table_scan("t")

    def test_a_narrower_eq_prices_the_full_sort_it_builds(self):
        """The builder's equivalences say ``x = a``; the goal's do not,
        so no prefix is shared and the enforcer is a full sort, priced
        as one (not as the partial sort the builder's classes allow)."""
        builder, child = self.builder_and_child(AttributeEquivalence.of([("a", "x")]))
        narrower = AttributeEquivalence()
        sort = builder.sort(child, self.ENFORCED, eq=narrower)
        assert sort.op == "Sort"
        full = builder.cost.coe(child.stats, EMPTY_ORDER, self.ENFORCED)
        partial = builder.cost.coe(child.stats, child.order, self.ENFORCED)
        assert partial < full / 10
        assert sort.self_cost == full
        assert sort.self_cost == builder.cost.coe(
            child.stats, child.order, self.ENFORCED, eq=narrower)

    def test_a_wider_eq_prices_the_partial_sort_it_builds(self):
        """The other way round (fuzz seed 58's shape): the goal's classes
        say ``x = a``, the builder's do not.  The partial sort the goal's
        prefix allows is priced as a partial sort."""
        builder, child = self.builder_and_child()
        wider = AttributeEquivalence.of([("a", "x")])
        sort = builder.sort(child, self.ENFORCED, eq=wider)
        assert sort.op == "PartialSort" and sort.arg("prefix") == SortOrder(["a"])
        assert sort.self_cost == builder.cost.coe(
            child.stats, child.order, self.ENFORCED, eq=wider)
        assert sort.self_cost < builder.cost.coe(
            child.stats, EMPTY_ORDER, self.ENFORCED) / 10

    def test_sharded_coe_matches_under_the_eq_it_is_given(self, gated):
        """Pushed below a fan-out, the enforcer keeps the prefix it was
        matched under: the goal's classes say ``x = a`` and the query's do
        not, so each shard of a scan clustered on ``x`` gets the partial
        sort the goal's prefix allows, and the fan-out is priced as those
        partial sorts — on the estimate the gate decides on and on the
        plan built — where under the query's classes it is full sorts."""
        import random

        import test_shard_enforcers as fx
        from repro.storage import Catalog

        rng = random.Random(3)
        catalog = Catalog(SystemParameters(sort_memory_blocks=10))
        catalog.create_table(
            "t", Schema.of(("a", "int", 40), ("b", "int", 40), ("x", "int", 20)),
            rows=sorted(((rng.randrange(100), rng.randrange(1000),
                          rng.randrange(100)) for _ in range(4000)),
                        key=lambda row: row[2]),
            clustering_order=SortOrder(["x"]))
        table = catalog.table("t")
        views = [StatsView.of_table(table.schema, s)
                 for s in table.shard_stats(4)]
        cm = make(catalog.params)

        wider = AttributeEquivalence.of([("a", "x")])
        estimates = {}
        for classes, eq in (("goal", wider), ("query", AttributeEquivalence())):
            run, unsharded, built = fx.placements(catalog, "t", self.ENFORCED,
                                                  "pyro-o", eq)
            gated.clear()
            run._sharded_enforcement(unsharded, eq)
            estimates[classes] = gated[0]
            assert estimates[classes] == pytest.approx(
                built["contiguous"].total_cost)
            if classes == "goal":
                scan, gather = unsharded.children[0], built["contiguous"]
                assert {(shard.op, shard.arg("prefix"))
                        for shard in gather.children} == {
                    ("PartialSort", SortOrder(["a"]))}
                per_shard = sum(cm.coe(v, scan.order, self.ENFORCED, eq=wider)
                                for v in views)
                assert sum(shard.self_cost for shard in gather.children) == \
                    pytest.approx(per_shard)
                assert estimates[classes] == pytest.approx(
                    scan.total_cost + per_shard
                    + cm.merge_exchange(scan.stats.N, 4))
        assert estimates["goal"] < estimates["query"]

    def test_an_enforcer_over_its_budget_is_not_built(self, monkeypatch):
        from repro.optimizer import manual

        builder, child = self.builder_and_child()
        sort = builder.sort(child, self.ENFORCED)
        built = []
        make_plan = manual.make_plan
        monkeypatch.setattr(manual, "make_plan",
                            lambda op, *args, **kw: built.append(op)
                            or make_plan(op, *args, **kw))
        assert builder.sort(child, self.ENFORCED,
                            limit=sort.total_cost) is None
        assert built == []
        below = builder.sort(child, self.ENFORCED,
                             limit=math.nextafter(sort.total_cost, math.inf))
        assert below == sort and built == ["Sort"]
        # A child that already delivers the order is returned as it is.
        assert builder.sort(child, SortOrder(["x"]), limit=0.0) is child
