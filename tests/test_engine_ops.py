"""Engine operator tests: scans, filter/project/compute, sort enforcers,
aggregates, sets, limit, lowering payloads."""

import random

import pytest

from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import (
    Compute,
    CoveringIndexScan,
    Dedup,
    ExecutionContext,
    Filter,
    HashAggregate,
    HashDedup,
    Limit,
    MergeUnion,
    Project,
    RowSource,
    Sort,
    SortAggregate,
    TableScan,
    UnionAll,
    operators_from_plan,
)
from repro.expr import col
from repro.expr.aggregates import agg_sum, count_star
from repro.optimizer.manual import PlanBuilder
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
        assert PlanBuilder(catalog).table_scan("t").order == SortOrder(["a"])
        out = TableScan(catalog.table("t")).run(ExecutionContext(catalog))
        assert [r[0] for r in out] == sorted(r[0] for r in out)

    def test_clustering_scan_requires_clustering(self):
        cat = Catalog()
        cat.create_table("u", SCHEMA, rows=[(1, 1, 1)])
        with pytest.raises(ValueError):
            PlanBuilder(cat).clustering_scan("u")

    def test_covering_scan_order_and_schema(self, catalog):
        ix = catalog.indexes_of("t")[0]
        op = CoveringIndexScan(ix)
        plan = PlanBuilder(catalog).covering_scan("t", ix.name)
        assert plan.order == SortOrder(["a", "b"])
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
        b = PlanBuilder(catalog)
        assert b.filter(b.table_scan("t"), col("a").eq(3)).order == SortOrder(["a"])

    def test_filter_missing_column(self, catalog):
        with pytest.raises(ValueError):
            Filter(TableScan(catalog.table("t")), col("zz").eq(1))

    def test_project_schema_and_order(self, catalog):
        """The plan claims the prefix of its input's order that survives
        the projection."""
        op = Project(TableScan(catalog.table("t")), ["a", "v"])
        assert op.schema.names == ("a", "v")
        out = op.run(ExecutionContext(catalog))
        assert [r[0] for r in out] == sorted(r[0] for r in out)
        b = PlanBuilder(catalog)
        scan = b.table_scan("t")
        assert b.project(scan, ["a", "v"]).order == SortOrder(["a"])
        assert b.project(scan, ["v"]).order == EMPTY_ORDER

    def test_compute(self):
        src = RowSource(SCHEMA, [(1, 2, 3), (4, 5, 6)])
        op = Compute(src, [("ab", col("a") + col("b"))])
        out = op.run()
        assert out == [(1, 2, 3, 3), (4, 5, 6, 9)]
        assert op.schema.names == ("a", "b", "v", "ab")


class TestSortOperator:
    def test_auto_uses_child_prefix(self, catalog):
        """The plan's enforcer takes its known prefix from the child's
        order, and lowering hands that prefix to the Sort."""
        b = PlanBuilder(catalog)
        plan = b.sort(b.table_scan("t"), SortOrder(["a", "b"]))
        assert plan.arg("prefix") == SortOrder(["a"])
        op = operators_from_plan(plan, catalog)
        assert op.known_prefix == SortOrder(["a"])
        ctx = ExecutionContext(catalog, check_orders=True)
        out = op.run(ctx)
        assert [(r[0], r[1]) for r in out] == sorted((r[0], r[1]) for r in out)
        assert ctx.sort_metrics.segments_sorted > 0

    def test_forced_srs_ignores_prefix(self, catalog):
        b = PlanBuilder(catalog)
        plan = b.sort(b.table_scan("t"), SortOrder(["a", "b"]), full=True)
        assert plan.op == "Sort" and plan.arg("prefix") == EMPTY_ORDER
        op = operators_from_plan(plan, catalog)
        assert op.known_prefix == EMPTY_ORDER
        ctx = ExecutionContext(catalog)
        out = op.run(ctx)
        assert [(r[0], r[1]) for r in out] == sorted((r[0], r[1]) for r in out)
        assert ctx.sort_metrics.segments_sorted == 0

    def test_partial_sort_alias(self, catalog):
        """A ``PartialSort`` plan node lowers to a ``Sort`` given its prefix;
        its meter keeps the plan's name."""
        b = PlanBuilder(catalog)
        plan = b.sort(b.table_scan("t"), SortOrder(["a", "b"]))
        assert plan.op == "PartialSort"
        op = operators_from_plan(plan, catalog)
        assert type(op) is Sort and op.known_prefix == plan.arg("prefix")
        assert op._meter[0] == "PartialSort"

    def test_input_prefix_violation_detected(self):
        src = RowSource(SCHEMA, [(2, 1, 1), (1, 1, 2)])
        op = Sort(src, SortOrder(["a", "b"]), known_prefix=SortOrder(["a"]))
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
        assert out == self.reference(catalog)  # sorted on (a, b)
        b = PlanBuilder(catalog)
        plan = b.sort_aggregate(b.sort(b.table_scan("t"), SortOrder(["a", "b"])),
                                SortOrder(["a", "b"]), [count_star("n")])
        assert plan.order == SortOrder(["a", "b"])

    def test_hash_aggregate_agrees(self, catalog):
        op = HashAggregate(TableScan(catalog.table("t")), ["a", "b"],
                           [count_star("n"), agg_sum(col("v"), "sv")])
        assert sorted(op.run(ExecutionContext(catalog))) == self.reference(catalog)
        b = PlanBuilder(catalog)
        plan = b.hash_aggregate(b.table_scan("t"), ["a", "b"], [count_star("n")])
        assert plan.order == EMPTY_ORDER

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
        src = RowSource(SCHEMA, [(1, 0, 0), (2, 0, 0), (1, 0, 0)])
        op = SortAggregate(src, SortOrder(["a"]), [count_star("n")])
        with pytest.raises(AssertionError):
            op.run(ExecutionContext(check_orders=True))

    def test_sort_aggregate_refuses_grouped_unsorted_input(self):
        """Under ``check_orders`` the input is held to ``group_order`` by
        the assertion every checked operator shares: grouped is not
        enough, as the search asks the child for exactly that order."""
        src = RowSource(SCHEMA, [(2, 0, 0), (2, 0, 1), (1, 0, 2)])
        op = SortAggregate(src, SortOrder(["a"]), [count_star("n")])
        assert op.run() == [(2, 2), (1, 1)]
        with pytest.raises(AssertionError, match="SortAggregate input"):
            op.run(ExecutionContext(check_orders=True))

    def test_null_handling(self):
        src = RowSource(SCHEMA, [(1, 1, None), (1, 1, 5)])
        op = SortAggregate(src, SortOrder(["a"]),
                           [agg_sum(col("v"), "sv"), count_star("n")])
        assert op.run() == [(1, 5, 2)]  # sum skips NULL, count(*) does not


class TestGlobalAggregate:
    """SQL's global aggregate: no group columns, one row, over empty
    input too (``count`` 0, the others NULL); with a group column, empty
    input has no rows."""

    EMPTY = col("a").ge(100)  # no row of ``t`` passes

    def query(self, group_columns):
        from repro.logical import Query
        return (Query.table("t").where(self.EMPTY)
                .group_by(group_columns, count_star("n"), agg_sum(col("b"), "s")))

    @pytest.mark.parametrize("hash_aggregate", [True, False])
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_both_operators_on_both_backends(self, catalog, hash_aggregate,
                                             parallelism):
        from repro.service import QueryServer, QuerySession
        session = QuerySession(catalog, enable_hash_aggregate=hash_aggregate)
        op = "HashAggregate" if hash_aggregate else "SortAggregate"
        prepared = session.prepare(self.query([]), parallelism=parallelism)
        assert op in {node.op for node in prepared.plan.walk()}
        assert prepared.execute() == [(0, None)]
        assert session.execute(self.query(["a"]), parallelism=parallelism) == []
        with QueryServer(catalog, backend="process", parallelism=parallelism,
                         pool_workers=2,
                         enable_hash_aggregate=hash_aggregate) as server:
            assert server.execute(self.query([])).rows == [(0, None)]
            assert server.execute(self.query(["a"])).rows == []

    def test_sharded_partials_and_combine(self, catalog):
        """Four per-shard partial aggregates, each with its one row, and
        their combine: one row, in process and on the pool."""
        from repro.optimizer.manual import PlanBuilder
        from repro.service.backends import ProcessPoolBackend
        b = PlanBuilder(catalog)
        scan = b.table_scan("t")
        aggs = [count_star("n"), agg_sum(col("b"), "s")]
        partials = [b.sort_aggregate(b.filter(b.shard_of(scan, 4, i, 0.25), self.EMPTY),
                                     EMPTY_ORDER, aggs) for i in range(4)]
        whole = b.sort_aggregate(b.filter(scan, self.EMPTY), EMPTY_ORDER, aggs)
        plan = b.sorted_combine(b.gather(partials, EMPTY_ORDER, whole.stats), [],
                                aggs, whole.stats)
        assert plan.execute(catalog) == whole.execute(catalog) == [(0, None)]
        backend = ProcessPoolBackend(catalog, workers=2)
        try:
            assert backend._run_pooled(plan, catalog) == [(0, None)]
        finally:
            backend.close()


class TestSetOps:
    def test_union_all(self):
        l = RowSource(SCHEMA, [(1, 1, 1)])
        r = RowSource(SCHEMA, [(2, 2, 2)])
        assert UnionAll(l, r).run() == [(1, 1, 1), (2, 2, 2)]

    def test_merge_union_dedups(self):
        order = SortOrder(["a", "b", "v"])
        l = RowSource(SCHEMA, [(1, 1, 1), (2, 2, 2)])
        r = RowSource(SCHEMA, [(1, 1, 1), (3, 3, 3)])
        out = MergeUnion(l, r, order).run(ExecutionContext(check_orders=True))
        assert out == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]

    def test_merge_union_validates_order_columns(self):
        l = RowSource(SCHEMA, [])
        r = RowSource(SCHEMA, [])
        with pytest.raises(ValueError):
            MergeUnion(l, r, SortOrder(["a"]))

    def test_dedup(self):
        order = SortOrder(["a", "b", "v"])
        src = RowSource(SCHEMA, [(1, 1, 1), (1, 1, 1), (2, 1, 1)])
        assert Dedup(src, order).run() == [(1, 1, 1), (2, 1, 1)]

    def test_hash_dedup(self, rng, catalog):
        rows = [(rng.randrange(3), rng.randrange(3), rng.randrange(2))
                for _ in range(50)]
        out = HashDedup(RowSource(SCHEMA, rows)).run()
        assert sorted(out) == sorted(set(rows))
        b = PlanBuilder(catalog)
        assert b.hash_dedup(b.table_scan("t")).order == EMPTY_ORDER


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
        """The plan is what EXPLAIN renders; its operators render nothing."""
        b = PlanBuilder(catalog)
        plan = b.filter(b.sort(b.table_scan("t"), SortOrder(["a", "b"])),
                        col("a").eq(1))
        text = plan.explain()
        assert "Filter" in text and "PartialSort" in text and "TableScan" in text
        assert "(a, b)" in text
        assert not hasattr(plan.to_operator(catalog), "explain")

    def test_walk(self, catalog):
        op = Filter(TableScan(catalog.table("t")), col("a").eq(1))
        assert [type(o) for o in op.walk()] == [Filter, TableScan]
