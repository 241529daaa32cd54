"""Workload generator and bench-harness tests."""

import pytest

from repro.bench import (
    format_table,
    normalize,
    postgres_default_q3,
    pyro_o_q3,
    pyro_o_q4,
    run_plan,
    speedup,
    sys_default_q4,
)
from repro.core.sort_order import SortOrder
from repro.engine import ExecutionContext
from repro.storage import SystemParameters
from repro.workloads import (
    add_query3_indexes,
    consolidation_catalog,
    consolidation_stats_catalog,
    identical_r_tables,
    query4,
    query5,
    query6,
    segmented_catalog,
    tpch_catalog,
    tpch_stats_catalog,
    trading_catalog,
    trading_stats_catalog,
)


class TestTpchGenerator:
    def test_deterministic(self):
        a = tpch_catalog(scale=0.001, seed=5)
        b = tpch_catalog(scale=0.001, seed=5)
        assert a.table("lineitem").rows == b.table("lineitem").rows

    def test_foreign_keys_hold(self):
        cat = tpch_catalog(scale=0.001, seed=5)
        pairs = {(r[0], r[1]) for r in cat.table("partsupp").rows}
        for row in cat.table("lineitem").rows:
            assert (row[2], row[3]) in pairs

    def test_clustering_respected(self):
        cat = tpch_catalog(scale=0.001, seed=5)
        for name in ("lineitem", "partsupp", "supplier", "part"):
            assert cat.table(name).verify_clustering()

    def test_group_statistic_recorded(self):
        cat = tpch_catalog(scale=0.001, seed=5)
        gd = cat.table("lineitem").stats.group_distinct
        key = frozenset({"l_partkey", "l_suppkey"})
        assert key in gd
        assert gd[key] <= len(cat.table("partsupp").rows)

    def test_stats_catalog_paper_sizes(self):
        cat = tpch_stats_catalog()
        assert len(cat.table("lineitem")) == 6_000_000
        assert len(cat.table("partsupp")) == 800_000
        assert not cat.table("lineitem").is_materialized

    def test_query3_indexes_cover(self, query3):
        from repro.logical import Annotator
        cat = tpch_stats_catalog()
        add_query3_indexes(cat)
        ann = Annotator(cat, query3.expr)
        assert cat.covering_indexes("partsupp", ann.used_attrs("partsupp"))
        assert cat.covering_indexes("lineitem", ann.used_attrs("lineitem"))


class TestOtherGenerators:
    def test_segmented_table_segments(self):
        cat = segmented_catalog(1000, 10)
        rows = cat.table("r").rows
        assert len(rows) == 1000
        assert len({r[0] for r in rows}) == 100
        assert cat.table("r").verify_clustering()

    def test_identical_r_tables(self):
        cat = identical_r_tables(num_rows=500)
        r1 = [tuple(r) for r in cat.table("r1").rows]
        r2 = [tuple(r) for r in cat.table("r2").rows]
        assert sorted(r1) == sorted(r2)  # identical contents

    def test_trading_self_join_matches(self):
        cat = trading_catalog(scale=0.005)
        rows = cat.table("tran").rows
        new_keys = {r[:5] for r in rows if r[7] == "New"}
        exec_keys = {r[:5] for r in rows if r[7] == "Executed"}
        assert new_keys & exec_keys  # Query 5 has matches

    def test_trading_aliases(self):
        cat = trading_stats_catalog()
        assert cat.table("tran_t1").schema.names[0] == "t1_userid"
        assert cat.table("tran_t2").clustering_order == SortOrder(
            ["t2_userid", "t2_basketid", "t2_parentorderid"])

    def test_consolidation_catalogs(self):
        stats = consolidation_stats_catalog()
        assert len(stats.table("catalog1")) == 2_000_000
        mat = consolidation_catalog(scale=0.002)
        c1 = {r[:4] for r in mat.table("catalog1").rows}
        c2 = {r[:4] for r in mat.table("catalog2").rows}
        assert c1 & c2  # the 4-attribute join has matches

    def test_queries_build(self):
        for q in (query4(), query5(), query6()):
            assert q.expr is not None


class TestHarness:
    def test_run_plan_metrics(self, tpch_mini):
        plan = pyro_o_q3(tpch_mini)
        result = run_plan(plan, tpch_mini, "q3")
        assert result.rows > 0
        assert result.cost_units > 0
        assert result.blocks_read > 0
        assert result.wall_seconds > 0

    def test_timeline_sampling(self, tpch_mini):
        from repro.engine import TableScan
        scan = TableScan(tpch_mini.table("lineitem"))
        result = run_plan(scan, tpch_mini, sample_every=1000)
        assert result.output_timeline
        counts = [n for n, _ in result.output_timeline]
        costs = [c for _, c in result.output_timeline]
        assert counts == sorted(counts)
        assert costs == sorted(costs)

    def test_speedup(self, tpch_mini):
        a = run_plan(postgres_default_q3(tpch_mini), tpch_mini)
        b = run_plan(pyro_o_q3(tpch_mini), tpch_mini)
        assert speedup(a, b) == pytest.approx(a.cost_units / b.cost_units)

    def test_format_table(self):
        text = format_table(["x", "y"], [[1, 2.5], [30000, "z"]], title="T")
        assert "T" in text and "30,000" in text and "x" in text

    def test_normalize(self):
        out = normalize({"a": 50.0, "b": 100.0}, "b")
        assert out == {"a": 50.0, "b": 100.0}
        with pytest.raises(ValueError):
            normalize({"a": 0.0}, "a")


class TestBaselines:
    def test_q3_baselines_agree_on_results(self, tpch_mini):
        expected = None
        for build in (postgres_default_q3, pyro_o_q3):
            rows = sorted(build(tpch_mini).execute(tpch_mini))
            if expected is None:
                expected = rows
            assert rows == expected

    def test_q4_baselines_agree(self):
        cat = identical_r_tables(num_rows=2_000)
        a = sorted(map(repr, sys_default_q4(cat).execute(cat)))
        b = sorted(map(repr, pyro_o_q4(cat).execute(cat)))
        assert a == b

    def test_pyro_o_q3_shape(self, tpch_mini):
        plan = pyro_o_q3(tpch_mini)
        ops = [p.op for p in plan.walk()]
        assert ops.count("PartialSort") == 2
        assert "SortAggregate" in ops

    def test_q4_shared_prefix_costs_less(self):
        cat = identical_r_tables(
            num_rows=5_000,
            params=SystemParameters(block_size=4096, sort_memory_blocks=8))
        default = run_plan(sys_default_q4(cat), cat)
        shared = run_plan(pyro_o_q4(cat), cat)
        assert shared.cost_units <= default.cost_units
