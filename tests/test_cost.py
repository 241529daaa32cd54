"""Cost model tests: the coe() formulas of Section 3.2 and operator costs."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sort_order import AttributeEquivalence, EMPTY_ORDER, SortOrder
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


class TestOperatorCosts:
    def test_scan_is_blocks(self):
        cm = make()
        s = stats(10_000)
        assert cm.table_scan(s) == s.B(4096)

    def test_index_scan_uses_entry_width(self):
        cm = make()
        assert cm.index_scan(10_000, 20) < cm.index_scan(10_000, 200)

    def test_hash_join_spill_penalty(self):
        params = SystemParameters(sort_memory_blocks=5)
        cm = make(params)
        big = stats(100_000)
        small = stats(100)
        assert cm.hash_join(big, small, 100) > \
            cm.hash_join(small, big, 100)  # build side drives the spill

    def test_merge_join_linear(self):
        cm = make()
        a, b = stats(1000), stats(2000)
        assert cm.merge_join(a, b, 100) == pytest.approx(
            cm.cpu(1000 + 2000 + 100))

    def test_hash_aggregate_spill(self):
        params = SystemParameters(sort_memory_blocks=2)
        cm = make(params)
        in_stats, out_stats = stats(100_000), stats(90_000)
        spilled = cm.hash_aggregate(in_stats, out_stats)
        fit = CostModel(SystemParameters()).hash_aggregate(in_stats, out_stats)
        assert spilled > fit

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
