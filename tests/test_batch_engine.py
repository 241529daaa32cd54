"""Batch container, block charger, sharded scans, exchange union and the
drive loop."""

import pytest

from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import (
    BatchBuilder,
    BatchedExecutor,
    BlockCharger,
    ExchangeUnion,
    ExecutionContext,
    Filter,
    IOAccountant,
    Project,
    RowBatch,
    RowSource,
    ShardedScan,
    Sort,
    TableScan,
    batches_of,
    flatten_batches,
    shard_bounds,
)
from repro.expr import col
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

    def test_columnar_accessors(self):
        batch = RowBatch([(1, 2, 3), (4, 5, 6)])
        assert list(batch.column(1)) == [2, 5]
        # Zero-copy contract: the same cached column object comes back.
        assert batch.column(1) is batch.column(1)
        assert batch.take([2, 0]) == [(3, 1), (6, 4)]
        assert batch.filter(lambda r: r[0] > 1).rows == [(4, 5, 6)]

    def test_batches_of_chunking(self):
        batches = list(batches_of(iter([(i,) for i in range(10)]), 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert list(flatten_batches(batches)) == [(i,) for i in range(10)]
        assert list(batches_of([], 4)) == []
        with pytest.raises(ValueError):
            list(batches_of([(1,)], 0))

    def test_batch_builder(self):
        out = BatchBuilder(3)
        emitted = [out.append((i,)) for i in range(4)]
        assert [e for e in emitted if e is not None][0].rows == [(0,), (1,), (2,)]
        tail = out.flush()
        assert tail.rows == [(3,)]
        assert out.flush() is None


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
            pieces.extend(ShardedScan(table, 3, i).run(ExecutionContext(catalog)))
        assert pieces == full

    def test_shard_validation(self, catalog):
        table = catalog.table("t")
        with pytest.raises(ValueError):
            ShardedScan(table, 1, 0)  # use TableScan for unsharded
        with pytest.raises(ValueError):
            TableScan(table, 4, 4)
        with pytest.raises(ValueError):
            TableScan(table, 0, 0)

    def test_exchange_union_preserves_contiguous_order(self, catalog):
        table = catalog.table("t")
        exchange = ExchangeUnion([ShardedScan(table, 4, i) for i in range(4)])
        assert exchange.output_order == table.clustering_order
        ctx = ExecutionContext(catalog, check_orders=True)
        out = Sort(exchange, SortOrder(["a", "b"])).run(ctx)
        assert [(r[0], r[1]) for r in out] == sorted((r[0], r[1]) for r in out)

    def test_exchange_union_unrelated_children_get_no_order(self):
        l = RowSource(SCHEMA, [(1, 1, 1)], SortOrder(["a"]))
        r = RowSource(SCHEMA, [(0, 0, 0)], SortOrder(["a"]))
        assert ExchangeUnion([l, r]).output_order == EMPTY_ORDER

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
        assert session.execute(self.query(), batch_size=1) == \
            session.execute(self.query(), batch_size=4096)
