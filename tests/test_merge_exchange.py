"""MergeExchange unit tests: edge shapes (empty/single/oversharded
shards, duplicate keys), spilling per-shard sorts, and the round-based
merge's properties (stability, the tree-of-losers tally, lazy refill)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sort_order import SortOrder
from repro.engine import (
    ExecutionContext,
    Limit,
    MergeExchange,
    RowBatch,
    RowSource,
    Sort,
    TableScan,
    collect_rows,
    merge_sorted_streams,
    null_safe_wrap,
)
from repro.storage import Catalog, Schema, SystemParameters
from tests import row_oracle

SCHEMA = Schema.of(("k", "int", 8), ("v", "int", 8))
ORDER_K = SortOrder(["k"])


def source(rows):
    return RowSource(SCHEMA, rows)


def _counters(ctx):
    return (ctx.io.blocks_read, ctx.io.blocks_written, ctx.comparisons.value,
            ctx.sort_metrics.runs_created, ctx.sort_metrics.in_memory_sorts)


class TestMergeExchangeShapes:
    def test_merges_sorted_shards(self):
        left = source([(1, 0), (3, 0), (5, 0)])
        right = source([(2, 1), (4, 1), (6, 1)])
        merged = MergeExchange([left, right], ORDER_K)
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
        shards = [Sort(TableScan(table, 8, i), ORDER_K) for i in range(8)]
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
        liar = source([(5, 0), (1, 0)])  # merged on (k) but not sorted
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
        shards = [Sort(TableScan(table, shard_count, i), ORDER_K)
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


# -- the round-based merge ---------------------------------------------------------------
BATCH_SIZES = (1, 2, 3, 7, 1024)
wrapped_key = row_oracle.wrapped_key([0])


@st.composite
def shard_streams(draw):
    """1..6 streams of ``(key, stream, arrival)`` rows, each sorted NULLS
    FIRST on ``key``.  Keys come from a small domain, so duplicates occur
    across and within streams; streams may be empty."""
    keys = draw(st.sampled_from([
        st.integers(0, 6),
        st.one_of(st.none(), st.integers(0, 4)),
        st.sampled_from(["", "a", "ab", "b", "ba"]),
        st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
    ]))
    streams = []
    for stream in range(draw(st.integers(1, 6))):
        values = sorted(draw(st.lists(keys, max_size=12)),
                        key=lambda v: null_safe_wrap((v,)))
        streams.append([(v, stream, i) for i, v in enumerate(values)])
    return streams


def cut(rows, batch_size, with_empty_batches=False):
    """*rows* as a batch list, optionally littered with empty batches."""
    batches = [RowBatch(rows[i:i + batch_size])
               for i in range(0, len(rows), batch_size)]
    if with_empty_batches:
        batches = [b for batch in batches for b in (RowBatch([]), batch)]
        batches.append(RowBatch([]))
    return batches


class TestRoundMerge:
    @given(shard_streams())
    @settings(max_examples=150, deadline=None)
    def test_stable_sort_of_the_concatenation_at_every_batch_size(self, streams):
        """Rows equal a stable sort of the streams concatenated in stream
        order, and the tally is ``N * ceil(log2 k)`` however the streams
        are cut into batches — empty batches and empty streams included."""
        expected = sorted((row for rows in streams for row in rows),
                          key=wrapped_key)
        per_row = (len(streams) - 1).bit_length()
        for batch_size in BATCH_SIZES:
            for with_empty in (False, True):
                ctx = ExecutionContext()
                merged = merge_sorted_streams(
                    [cut(rows, batch_size, with_empty) for rows in streams],
                    [0], ctx)
                assert collect_rows(merged) == expected, batch_size
                assert ctx.comparisons.value == len(expected) * per_row

    @given(shard_streams())
    @settings(max_examples=60, deadline=None)
    def test_exchange_agrees_and_checks_orders(self, streams):
        schema = Schema.of(("k", "int", 8), ("s", "int", 8), ("i", "int", 8))
        children = [RowSource(schema, rows) for rows in streams]
        expected = sorted((row for rows in streams for row in rows),
                          key=wrapped_key)
        for batch_size in BATCH_SIZES:
            ctx = ExecutionContext(batch_size=batch_size, check_orders=True)
            batches = list(MergeExchange(children, ORDER_K).execute_batches(ctx))
            assert collect_rows(batches) == expected
            assert all(0 < len(b) <= batch_size for b in batches)

    def test_no_comparisons_for_one_stream_two_per_row_for_four(self):
        for k, per_row in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
            ctx = ExecutionContext()
            streams = [cut([(i, s) for i in range(10)], 4) for s in range(k)]
            assert len(collect_rows(merge_sorted_streams(streams, [0], ctx))) \
                == 10 * k
            assert ctx.comparisons.value == 10 * k * per_row

    def test_check_orders_catches_unsorted_shard_among_many(self):
        children = [source([(1, 0), (4, 0)]), source([(3, 1), (2, 1)]),
                    source([(0, 2)])]
        ctx = ExecutionContext(check_orders=True)
        with pytest.raises(AssertionError, match="MergeExchange input shard 1"):
            MergeExchange(children, ORDER_K).run(ctx)

    def test_limit_pulls_no_batch_beyond_the_owner_refill(self):
        """A round needs one head batch per shard; the next round refills
        only the shard whose batch the last one exhausted, and only when
        the consumer comes back for more."""
        pulled = [0, 0, 0]

        class Counting(RowSource):
            def __init__(self, index):
                rows = [(index + 3 * i, index) for i in range(16)]
                super().__init__(SCHEMA, rows)
                self.index = index

            def execute_batches(self, ctx):
                for batch in super().execute_batches(ctx):
                    pulled[self.index] += 1
                    yield batch

        merged = MergeExchange([Counting(i) for i in range(3)], ORDER_K)
        # Heads 0,3,6,9 / 1,4,7,10 / 2,5,8,11: the first round's bound is
        # 9 (shard 0) and it emits the ten rows 0..9.
        ctx = ExecutionContext(batch_size=4)
        assert Limit(merged, 8).run(ctx) == [(i, i % 3) for i in range(8)]
        assert pulled == [1, 1, 1]
        pulled[:] = [0, 0, 0]
        # Filling a third output batch takes two more rounds: shard 0 is
        # refilled and row 10 (shard 1's last) emitted, then shard 1 is
        # refilled and row 11 emitted.  Shard 2 is never pulled again.
        assert Limit(merged, 11).run(ctx) == [(i, i % 3) for i in range(11)]
        assert pulled == [2, 2, 1]
