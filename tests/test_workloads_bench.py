"""Workload generator and competitor-plan tests."""

from repro.core.sort_order import SortOrder
from repro.engine import ExecutionContext
from repro.optimizer.baselines import (
    postgres_default_q3,
    pyro_o_q3,
    pyro_o_q4,
    sys_default_q4,
)
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
from tests.conftest import clustered


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
            assert clustered(cat.table(name))

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
        from repro.optimizer.pipeline.groups import GroupTable
        cat = tpch_stats_catalog()
        add_query3_indexes(cat)
        groups = GroupTable(cat, query3.expr)
        for table in ("partsupp", "lineitem"):
            assert any(index.covers(groups.used_attrs(table))
                       for index in cat.indexes_of(table))


class TestOtherGenerators:
    def test_segmented_table_segments(self):
        cat = segmented_catalog(1000, 10)
        rows = cat.table("r").rows
        assert len(rows) == 1000
        assert len({r[0] for r in rows}) == 100
        assert clustered(cat.table("r"))

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
        default, shared = ExecutionContext(cat), ExecutionContext(cat)
        sys_default_q4(cat).execute(cat, default)
        pyro_o_q4(cat).execute(cat, shared)
        assert shared.cost_units() <= default.cost_units()
