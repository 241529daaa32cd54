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


class TestShardedFormulas:
    """``sharded_coe`` — the estimate the enforcer placement is decided
    on before any shard plan is built — must equal the per-node pricing
    of the plan ``enforce`` then materialises."""

    def test_sharded_coe_measured_equals_per_shard_sum(self):
        cm = make()
        views = [stats(n) for n in (900, 500, 400, 200)]
        whole = stats(2000)
        target = SortOrder(["a"])
        per_shard = sum(cm.coe(v, EMPTY_ORDER, target) for v in views)
        assert cm.sharded_coe(whole, EMPTY_ORDER, target, 4,
                              shard_stats=views) == pytest.approx(
            per_shard + cm.merge_exchange(2000, 4))
        # Disjoint partitions drop the merge term entirely.
        assert cm.sharded_coe(whole, EMPTY_ORDER, target, 4,
                              shard_stats=views, disjoint_merge=True) == \
            pytest.approx(per_shard)

    @pytest.mark.parametrize("fan_out", ["contiguous", "range", "uniform"])
    def test_sharded_coe_prices_the_plan_enforce_builds(self, fan_out):
        """The estimate the enforcer gate decides on, plus the chain
        below, is what the per-shard plan it then builds costs."""
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

        views = per_table and [StatsView.of_table(table.schema, s)
                               for s in per_table]
        estimate = make(catalog.params).sharded_coe(
            chain.stats, chain.order, target, 4, partial_enabled=False,
            shard_stats=views, disjoint_merge=fan_out == "range")
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

    def test_sharded_coe_matches_under_the_eq_it_is_given(self):
        cm = make()
        wider = AttributeEquivalence.of([("a", "x")])
        whole = stats(10_000, {"a": 100, "x": 100})
        views = [stats(2_500, {"a": 100, "x": 100}) for _ in range(4)]
        given_eq = cm.sharded_coe(whole, SortOrder(["x"]), self.ENFORCED, 4,
                                  shard_stats=views, eq=wider)
        assert given_eq == pytest.approx(
            sum(cm.coe(v, SortOrder(["x"]), self.ENFORCED, eq=wider)
                for v in views) + cm.merge_exchange(10_000, 4))
        assert given_eq < cm.sharded_coe(whole, SortOrder(["x"]),
                                         self.ENFORCED, 4, shard_stats=views)

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
