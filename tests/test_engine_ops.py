"""Engine operator tests: scans, filter/project/compute, sort enforcers,
aggregates, sets, limit, lowering payloads."""

import random

import pytest

from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import (
    ClusteringIndexScan,
    Compute,
    CoveringIndexScan,
    Dedup,
    ExecutionContext,
    Filter,
    HashAggregate,
    HashDedup,
    Limit,
    MergeUnion,
    PartialSort,
    Project,
    RowSource,
    Sort,
    SortAggregate,
    TableScan,
    UnionAll,
)
from repro.expr import col
from repro.expr.aggregates import agg_sum, count_star
from repro.storage import Catalog, Schema, SystemParameters

SCHEMA = Schema.of(("a", "int", 8), ("b", "int", 8), ("v", "int", 8))


@pytest.fixture
def catalog(rng):
    cat = Catalog()
    rows = [(rng.randrange(8), rng.randrange(5), i) for i in range(200)]
    cat.create_table("t", SCHEMA, rows=rows, clustering_order=SortOrder(["a"]))
    cat.create_index("t_ab", "t", SortOrder(["a", "b"]), included=["v"])
    return cat


class TestScans:
    def test_table_scan_charges_blocks(self, catalog):
        ctx = ExecutionContext(catalog)
        rows = TableScan(catalog.table("t")).run(ctx)
        assert len(rows) == 200
        assert ctx.io.blocks_read == catalog.table("t").num_blocks

    def test_table_scan_order_is_clustering(self, catalog):
        op = TableScan(catalog.table("t"))
        assert op.output_order == SortOrder(["a"])
        out = op.run(ExecutionContext(catalog))
        assert [r[0] for r in out] == sorted(r[0] for r in out)

    def test_clustering_scan_requires_clustering(self):
        cat = Catalog()
        t = cat.create_table("u", SCHEMA, rows=[(1, 1, 1)])
        with pytest.raises(ValueError):
            ClusteringIndexScan(t)

    def test_covering_scan_order_and_schema(self, catalog):
        ix = catalog.indexes_of("t")[0]
        op = CoveringIndexScan(ix)
        assert op.output_order == SortOrder(["a", "b"])
        assert op.schema.names == ("a", "b", "v")
        out = op.run(ExecutionContext(catalog))
        keys = [(r[0], r[1]) for r in out]
        assert keys == sorted(keys)

    def test_covering_scan_cheaper_than_table_scan_when_narrow(self):
        cat = Catalog()
        wide = Schema.of(("a", "int", 8), ("pad", "str", 400))
        rows = [(i, "x" * 10) for i in range(2000)]
        t = cat.create_table("w", wide, rows=rows)
        cat.create_index("w_a", "w", SortOrder(["a"]))
        ctx1 = ExecutionContext(cat)
        TableScan(t).run(ctx1)
        ctx2 = ExecutionContext(cat)
        CoveringIndexScan(cat.indexes_of("w")[0]).run(ctx2)
        assert ctx2.io.blocks_read < ctx1.io.blocks_read / 5


class TestRowOps:
    def test_filter(self, catalog):
        op = Filter(TableScan(catalog.table("t")), col("a").eq(3))
        out = op.run(ExecutionContext(catalog))
        assert all(r[0] == 3 for r in out)
        assert op.output_order == SortOrder(["a"])

    def test_filter_missing_column(self, catalog):
        with pytest.raises(ValueError):
            Filter(TableScan(catalog.table("t")), col("zz").eq(1))

    def test_project_schema_and_order(self, catalog):
        scan = TableScan(catalog.table("t"))
        op = Project(scan, ["a", "v"])
        assert op.schema.names == ("a", "v")
        assert op.output_order == SortOrder(["a"])
        dropped = Project(scan, ["v"])
        assert dropped.output_order == EMPTY_ORDER

    def test_compute(self):
        src = RowSource(SCHEMA, [(1, 2, 3), (4, 5, 6)])
        op = Compute(src, [("ab", col("a") + col("b"))])
        out = op.run()
        assert out == [(1, 2, 3, 3), (4, 5, 6, 9)]
        assert op.schema.names == ("a", "b", "v", "ab")


class TestSortOperator:
    def test_auto_uses_child_prefix(self, catalog):
        op = Sort(TableScan(catalog.table("t")), SortOrder(["a", "b"]))
        assert op.known_prefix == SortOrder(["a"])
        assert op.is_partial
        ctx = ExecutionContext(catalog, check_orders=True)
        out = op.run(ctx)
        assert [(r[0], r[1]) for r in out] == sorted((r[0], r[1]) for r in out)
        assert ctx.sort_metrics.segments_sorted > 0

    def test_forced_srs_ignores_prefix(self, catalog):
        op = Sort(TableScan(catalog.table("t")), SortOrder(["a", "b"]),
                  algorithm="srs")
        assert not op.is_partial
        ctx = ExecutionContext(catalog)
        out = op.run(ctx)
        assert [(r[0], r[1]) for r in out] == sorted((r[0], r[1]) for r in out)
        assert ctx.sort_metrics.segments_sorted == 0

    def test_partial_sort_alias(self, catalog):
        op = PartialSort(TableScan(catalog.table("t")), SortOrder(["a", "b"]))
        assert op.name == "PartialSort"
        assert op.is_partial

    def test_input_prefix_violation_detected(self):
        src = RowSource(SCHEMA, [(2, 1, 1), (1, 1, 2)], SortOrder(["a"]))
        op = Sort(src, SortOrder(["a", "b"]))
        with pytest.raises(AssertionError):
            op.run(ExecutionContext(check_orders=True))

    def test_missing_sort_column(self, catalog):
        with pytest.raises(ValueError):
            Sort(TableScan(catalog.table("t")), SortOrder(["zz"]))


class TestAggregateOps:
    def make_sorted(self, catalog):
        return Sort(TableScan(catalog.table("t")), SortOrder(["a", "b"]))

    def reference(self, catalog):
        ref = {}
        for a, b, v in catalog.table("t").rows:
            cnt, tot = ref.get((a, b), (0, 0))
            ref[(a, b)] = (cnt + 1, tot + v)
        return sorted((a, b, c, s) for (a, b), (c, s) in ref.items())

    def test_sort_aggregate(self, catalog):
        op = SortAggregate(self.make_sorted(catalog), SortOrder(["a", "b"]),
                           [count_star("n"), agg_sum(col("v"), "sv")])
        out = op.run(ExecutionContext(catalog, check_orders=True))
        assert sorted(out) == self.reference(catalog)
        assert op.output_order == SortOrder(["a", "b"])

    def test_hash_aggregate_agrees(self, catalog):
        op = HashAggregate(TableScan(catalog.table("t")), ["a", "b"],
                           [count_star("n"), agg_sum(col("v"), "sv")])
        assert sorted(op.run(ExecutionContext(catalog))) == self.reference(catalog)
        assert op.output_order == EMPTY_ORDER

    def test_fd_reduced_group_columns(self, catalog):
        """Sort key (a, b) but emit group columns (a, b, v)-style superset
        is allowed when determined; here we use (b, a) ordering with full
        output columns (a, b)."""
        sorted_in = Sort(TableScan(catalog.table("t")), SortOrder(["b", "a"]))
        op = SortAggregate(sorted_in, SortOrder(["b", "a"]),
                           [count_star("n")], group_columns=["a", "b"])
        out = op.run(ExecutionContext(catalog, check_orders=True))
        expected = {}
        for a, b, v in catalog.table("t").rows:
            expected[(a, b)] = expected.get((a, b), 0) + 1
        assert sorted(out) == sorted((a, b, n) for (a, b), n in expected.items())

    def test_group_order_not_subset_rejected(self, catalog):
        with pytest.raises(ValueError):
            SortAggregate(self.make_sorted(catalog), SortOrder(["a", "b"]),
                          [count_star("n")], group_columns=["a"])

    def test_sort_aggregate_detects_bad_grouping(self):
        src = RowSource(SCHEMA, [(1, 0, 0), (2, 0, 0), (1, 0, 0)],
                        SortOrder(["a"]))
        op = SortAggregate(src, SortOrder(["a"]), [count_star("n")])
        with pytest.raises(AssertionError):
            op.run(ExecutionContext(check_orders=True))

    def test_null_handling(self):
        src = RowSource(SCHEMA, [(1, 1, None), (1, 1, 5)], SortOrder(["a"]))
        op = SortAggregate(src, SortOrder(["a"]),
                           [agg_sum(col("v"), "sv"), count_star("n")])
        assert op.run() == [(1, 5, 2)]  # sum skips NULL, count(*) does not


class TestSetOps:
    def test_union_all(self):
        l = RowSource(SCHEMA, [(1, 1, 1)])
        r = RowSource(SCHEMA, [(2, 2, 2)])
        assert UnionAll(l, r).run() == [(1, 1, 1), (2, 2, 2)]

    def test_merge_union_dedups(self):
        order = SortOrder(["a", "b", "v"])
        l = RowSource(SCHEMA, [(1, 1, 1), (2, 2, 2)], order)
        r = RowSource(SCHEMA, [(1, 1, 1), (3, 3, 3)], order)
        out = MergeUnion(l, r, order).run(ExecutionContext(check_orders=True))
        assert out == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]

    def test_merge_union_validates_order_columns(self):
        l = RowSource(SCHEMA, [])
        r = RowSource(SCHEMA, [])
        with pytest.raises(ValueError):
            MergeUnion(l, r, SortOrder(["a"]))

    def test_dedup(self):
        order = SortOrder(["a", "b", "v"])
        src = RowSource(SCHEMA, [(1, 1, 1), (1, 1, 1), (2, 1, 1)], order)
        assert Dedup(src, order).run() == [(1, 1, 1), (2, 1, 1)]

    def test_hash_dedup(self, rng):
        rows = [(rng.randrange(3), rng.randrange(3), rng.randrange(2))
                for _ in range(50)]
        out = HashDedup(RowSource(SCHEMA, rows)).run()
        assert sorted(out) == sorted(set(rows))


class TestLimitTopK:
    def test_limit(self):
        src = RowSource(SCHEMA, [(i, 0, 0) for i in range(10)])
        assert len(Limit(src, 3).run()) == 3
        assert Limit(src, 0).run() == []

    def test_limit_early_stop_saves_io(self, catalog):
        ctx_all = ExecutionContext(catalog)
        TableScan(catalog.table("t")).run(ctx_all)
        ctx_lim = ExecutionContext(catalog)
        Limit(TableScan(catalog.table("t")), 1).run(ctx_lim)
        assert ctx_lim.io.blocks_read <= ctx_all.io.blocks_read


class TestExplain:
    def test_tree_rendering(self, catalog):
        op = Filter(Sort(TableScan(catalog.table("t")), SortOrder(["a", "b"])),
                    col("a").eq(1))
        text = op.explain()
        assert "Filter" in text and "Sort" in text and "TableScan" in text
        assert "(a, b)" in text

    def test_walk(self, catalog):
        op = Filter(TableScan(catalog.table("t")), col("a").eq(1))
        assert [o.name for o in op.walk()] == ["Filter", "TableScan"]
