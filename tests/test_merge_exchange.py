"""MergeExchange unit tests: edge shapes (empty/single/oversharded
shards, duplicate keys) and spilling per-shard sorts."""

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import (
    ExecutionContext,
    MergeExchange,
    RowSource,
    ShardedScan,
    Sort,
    TableScan,
)
from repro.storage import Catalog, Schema, SystemParameters

SCHEMA = Schema.of(("k", "int", 8), ("v", "int", 8))
ORDER_K = SortOrder(["k"])


def source(rows, order=ORDER_K):
    return RowSource(SCHEMA, rows, output_order=order)


def _counters(ctx):
    return (ctx.io.blocks_read, ctx.io.blocks_written, ctx.comparisons.value,
            ctx.sort_metrics.runs_created, ctx.sort_metrics.in_memory_sorts)


class TestMergeExchangeShapes:
    def test_merges_sorted_shards(self):
        left = source([(1, 0), (3, 0), (5, 0)])
        right = source([(2, 1), (4, 1), (6, 1)])
        merged = MergeExchange([left, right], ORDER_K)
        assert merged.output_order == ORDER_K
        assert merged.run() == [(1, 0), (2, 1), (3, 0), (4, 1), (5, 0), (6, 1)]

    def test_empty_shards_are_skipped(self):
        children = [source([]), source([(2, 0), (9, 0)]), source([]),
                    source([(1, 1)])]
        assert MergeExchange(children, ORDER_K).run() == [(1, 1), (2, 0), (9, 0)]

    def test_all_shards_empty(self):
        merged = MergeExchange([source([]), source([])], ORDER_K)
        assert merged.run() == []
        assert list(merged.execute_batches(ExecutionContext())) == []

    def test_single_shard_is_a_free_passthrough(self):
        rows = [(1, 0), (2, 0), (3, 0)]
        ctx = ExecutionContext()
        merged = MergeExchange([source(rows)], ORDER_K)
        assert merged.run(ctx) == rows
        assert ctx.comparisons.value == 0  # no heap contention to pay for

    def test_duplicate_keys_stable_tie_break(self):
        """Equal keys come out in shard order, within a shard in arrival
        order — exactly what a stable full sort of the shard-order
        concatenation would produce."""
        shard0 = source([(1, 100), (1, 101), (2, 102)])
        shard1 = source([(1, 200), (2, 201), (2, 202)])
        merged = MergeExchange([shard0, shard1], ORDER_K)
        concatenated = [(1, 100), (1, 101), (2, 102), (1, 200), (2, 201), (2, 202)]
        assert merged.run() == sorted(concatenated, key=lambda r: r[0])
        assert merged.run() == [(1, 100), (1, 101), (1, 200), (2, 102),
                                (2, 201), (2, 202)]

    def test_shard_count_exceeding_row_count(self):
        """More shards than rows: the trailing shards are empty streams
        and the merge still reproduces the full sorted table."""
        cat = Catalog()
        rows = [(3, 0), (1, 1), (2, 2)]
        cat.create_table("tiny", SCHEMA, rows=rows)
        table = cat.table("tiny")
        shards = [Sort(ShardedScan(table, 8, i), ORDER_K) for i in range(8)]
        merged = MergeExchange(shards, ORDER_K)
        assert merged.run(ExecutionContext(cat)) == \
            sorted(table.rows, key=lambda r: r[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one child"):
            MergeExchange([], ORDER_K)
        with pytest.raises(ValueError, match="non-empty merge order"):
            MergeExchange([source([])], SortOrder())
        with pytest.raises(ValueError, match="missing columns"):
            MergeExchange([source([])], SortOrder(["nope"]))
        other = RowSource(Schema.of(("x", "int", 8)), [])
        with pytest.raises(ValueError, match="share a schema"):
            MergeExchange([source([]), other], ORDER_K)

    def test_check_orders_catches_lying_child(self):
        liar = source([(5, 0), (1, 0)])  # declares (k) but is not sorted
        merged = MergeExchange([liar], ORDER_K)
        ctx = ExecutionContext(check_orders=True)
        with pytest.raises(AssertionError, match="MergeExchange input shard 0"):
            merged.run(ctx)


class TestMergeExchangeCosts:
    def make_sharded_sorts(self, num_rows=2000, shard_count=4,
                           params=None, seed=7):
        import random
        rng = random.Random(seed)
        cat = Catalog(params or SystemParameters())
        rows = [(rng.randrange(50), i) for i in range(num_rows)]
        cat.create_table("t", SCHEMA, rows=rows)
        table = cat.table("t")
        shards = [Sort(ShardedScan(table, shard_count, i), ORDER_K)
                  for i in range(shard_count)]
        return cat, table, MergeExchange(shards, ORDER_K)

    def test_spilling_per_shard_sorts(self):
        """Shards larger than sort memory spill SRS runs; the merged
        result is still the full stable sort and the tallies are
        batch-size independent."""
        params = SystemParameters(block_size=256, sort_memory_blocks=4)
        cat, table, merged = self.make_sharded_sorts(params=params)
        expected = sorted(table.rows, key=lambda r: r[0])

        ref_ctx = ExecutionContext(cat, batch_size=1)
        assert merged.run(ref_ctx) == expected
        assert ref_ctx.sort_metrics.runs_created > 0  # genuinely spilled
        for batch_size in (3, 64, 4096):
            ctx = ExecutionContext(cat, batch_size=batch_size)
            assert merged.run(ctx) == expected, batch_size
            assert _counters(ctx) == _counters(ref_ctx), batch_size

    def test_merge_comparisons_counted(self):
        cat, table, merged = self.make_sharded_sorts(num_rows=64)
        sort_only = Sort(TableScan(table), ORDER_K)
        merge_ctx, sort_ctx = ExecutionContext(cat), ExecutionContext(cat)
        assert merged.run(merge_ctx) == sort_only.run(sort_ctx)
        # The k-way heap merge pays comparisons the single sort does not
        # (they are what the cost model's merge_exchange term estimates).
        assert merge_ctx.comparisons.value > 0
