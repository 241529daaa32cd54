"""Batch container, block charger, sharded scans, exchange union and the
drive loop."""

import pytest

from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import (
    BatchedExecutor,
    BlockCharger,
    ExchangeUnion,
    ExecutionContext,
    Filter,
    IOAccountant,
    Project,
    RowBatch,
    RowSource,
    Sort,
    TableScan,
    batches_of,
    flatten_batches,
    shard_bounds,
)
from repro.expr import col
from repro.optimizer.manual import PlanBuilder
from repro.storage import Catalog, Schema, SystemParameters

SCHEMA = Schema.of(("a", "int", 8), ("b", "int", 8), ("v", "int", 8))


@pytest.fixture
def catalog(rng):
    cat = Catalog()
    rows = [(rng.randrange(8), rng.randrange(5), i) for i in range(500)]
    cat.create_table("t", SCHEMA, rows=rows, clustering_order=SortOrder(["a"]))
    return cat


class TestRowBatch:
    def test_container_basics(self):
        batch = RowBatch([(1, 2), (3, 4)])
        assert len(batch) == 2 and bool(batch)
        assert list(batch) == [(1, 2), (3, 4)]
        assert batch[1] == (3, 4)
        assert not RowBatch([])
        wide = RowBatch([(1, 2, 3), (4, 5, 6)])
        assert wide.take([2, 0]) == [(3, 1), (6, 4)]
        assert wide.project([0, 1, 2]) is wide
        assert wide.head(1).rows == [(1, 2, 3)]

    def test_batches_of_chunking(self):
        batches = list(batches_of(iter([(i,) for i in range(10)]), 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert list(flatten_batches(batches)) == [(i,) for i in range(10)]
        assert list(batches_of([], 4)) == []
        with pytest.raises(ValueError):
            list(batches_of([(1,)], 0))


class TestBlockCharger:
    def test_matches_progressive_charging(self):
        # Seed behaviour: one block per per_block rows from row 0.
        for n in (0, 1, 7, 8, 9, 40):
            io = IOAccountant()
            charger = BlockCharger(io, 8)
            for start in range(0, n, 3):  # arbitrary batching
                charger.charge_range(start, min(start + 3, n))
            assert io.blocks_read == -(-n // 8), n  # ceil

    def test_mid_block_shard_pays_opening_block(self):
        io = IOAccountant()
        BlockCharger(io, 8).charge_range(4, 12)  # spans blocks 0 and 1
        assert io.blocks_read == 2

    def test_no_double_charge(self):
        io = IOAccountant()
        charger = BlockCharger(io, 8)
        charger.charge_range(0, 8)
        charger.charge_range(8, 8)  # empty
        charger.charge_range(8, 16)
        assert io.blocks_read == 2


class TestShardedScans:
    def test_shard_bounds_cover_exactly(self):
        for n in (0, 1, 7, 100):
            for count in (1, 2, 3, 7):
                ranges = [shard_bounds(n, count, i) for i in range(count)]
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                    assert hi == lo

    def test_sharded_rows_concatenate_to_full_scan(self, catalog):
        table = catalog.table("t")
        full = TableScan(table).run(ExecutionContext(catalog))
        pieces = []
        for i in range(3):
            pieces.extend(TableScan(table, 3, i).run(ExecutionContext(catalog)))
        assert pieces == full

    def test_shard_validation(self, catalog):
        table = catalog.table("t")
        with pytest.raises(ValueError):
            TableScan(table, 4, 4)
        with pytest.raises(ValueError):
            TableScan(table, 0, 0)

    def test_exchange_union_preserves_contiguous_order(self, catalog):
        table = catalog.table("t")
        exchange = ExchangeUnion([TableScan(table, 4, i) for i in range(4)])
        # The checked partial sort asserts its input is sorted on the
        # clustering order it is told of.
        ctx = ExecutionContext(catalog, check_orders=True)
        out = Sort(exchange, SortOrder(["a", "b"]),
                   known_prefix=table.clustering_order).run(ctx)
        assert [(r[0], r[1]) for r in out] == sorted((r[0], r[1]) for r in out)

    def test_exchange_union_unrelated_children_get_no_order(self, catalog):
        """The plan claims ε for every ExchangeUnion, whatever its
        children deliver: an order above the gather is enforced there."""
        b = PlanBuilder(catalog)
        scan = b.table_scan("t")
        assert scan.order == SortOrder(["a"])
        gather = b.gather([scan, scan], EMPTY_ORDER, scan.stats)
        assert gather.op == "ExchangeUnion" and gather.order == EMPTY_ORDER
        merge = b.gather([scan, scan], SortOrder(["a"]), scan.stats)
        assert merge.op == "MergeExchange" and merge.order == SortOrder(["a"])

    def test_exchange_union_rejects_mismatched_schemas(self, catalog):
        other = Schema.of(("x", "int", 8))
        with pytest.raises(ValueError):
            ExchangeUnion([TableScan(catalog.table("t")),
                           RowSource(other, [])])


class TestBatchedExecutor:
    def pipeline(self, catalog):
        return Project(Filter(TableScan(catalog.table("t")), col("a").lt(6)),
                       ["a", "v"])

    def test_serial_and_sharded_agree(self, catalog):
        """The drive loop runs the tree it is given: the vestigial
        ``parallelism`` argument changes neither rows nor tallies (the
        engine used to re-shard the scan here and read extra blocks)."""
        direct = ExecutionContext(catalog)
        baseline = self.pipeline(catalog).run(direct)
        assert direct.io.blocks_read == catalog.table("t").num_blocks
        for parallelism in (1, 2, 4):
            ctx = ExecutionContext(catalog)
            got = BatchedExecutor(parallelism=parallelism).run(
                self.pipeline(catalog), ctx)
            assert got == baseline
            assert ctx.tallies() == direct.tallies()


class TestSessionKnobs:
    def query(self):
        from repro.logical import Query
        return Query.table("t").where(col("a").lt(6)).select("a", "v")

    def test_session_parallelism_matches_serial(self, catalog):
        from repro.service import QuerySession
        session = QuerySession(catalog)
        serial = session.execute(self.query())
        sharded = session.execute(self.query(), parallelism=4)
        again = session.execute(self.query(), parallelism=4)
        assert sharded == serial and again == serial
        assert session.metrics.executions == 3
        # Parallelism is part of the plan-cache key (the enforcer
        # placement depends on it): one plan per fan-out, and the
        # repeat run reuses the parallelism=4 entry.
        assert session.metrics.optimizations == 2
        assert session.cache.stats.hits == 1

    def test_session_batch_size_knob(self, catalog):
        from repro.service import QuerySession
        session = QuerySession(catalog)
        assert session.execute(
            self.query(), ctx=ExecutionContext(catalog, batch_size=1)) == \
            session.execute(self.query(),
                            ctx=ExecutionContext(catalog, batch_size=4096))
