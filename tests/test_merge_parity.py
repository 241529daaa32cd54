"""Property-based parity: per-shard-sort-plus-merge must be bit-identical
to the post-union full sort.

For seeded random tables (row counts including empty, duplicate-heavy key
domains, varying clustering), random required orders, shard counts and
batch sizes, the pipeline

    MergeExchange([Sort(ShardedScan_i)] ...)

must return exactly the rows, in exactly the order, of

    Sort(ExchangeUnion([ShardedScan_i] ...))

— both are stable, and the merge breaks ties by shard index, which equals
the concatenation's arrival order.  The same property is checked through
the serving layer, where the optimizer (not the test) decides the plan
shape."""

import random

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import (
    ExchangeUnion,
    ExecutionContext,
    MergeExchange,
    ShardedScan,
    Sort,
    TableScan,
)
from repro.logical import Query
from repro.service import QuerySession
from repro.storage import Catalog, Schema, SystemParameters
from repro.workloads import segmented_catalog

BATCH_SIZES = (1, 64, None)  # None → DEFAULT_BATCH_SIZE
SCHEMA = Schema.of(("a", "int", 8), ("b", "int", 8), ("c", "int", 8),
                   ("id", "int", 8))


def random_catalog(rng: random.Random):
    """A table with duplicate-heavy keys, a unique payload column and a
    randomly chosen clustering order (sometimes none)."""
    num_rows = rng.choice([0, 1, 7, 100, 400])
    rows = [(rng.randrange(5), rng.randrange(7), rng.randrange(3), i)
            for i in range(num_rows)]
    clustering = rng.choice([(), ("a",), ("a", "b")])
    # Tiny sort memory on some cases so the per-shard sorts really spill.
    params = (SystemParameters(block_size=256, sort_memory_blocks=4)
              if rng.random() < 0.4 else SystemParameters())
    cat = Catalog(params)
    cat.create_table("t", SCHEMA, rows=rows,
                     clustering_order=SortOrder(clustering))
    return cat


def random_target(rng: random.Random) -> SortOrder:
    attrs = ["a", "b", "c"]
    rng.shuffle(attrs)
    return SortOrder(attrs[:rng.randrange(1, 4)])


def shard_sources(table, shard_count):
    if shard_count == 1:
        return [TableScan(table)]
    return [ShardedScan(table, shard_count, i) for i in range(shard_count)]


def post_union_pipeline(table, shard_count, target):
    sources = shard_sources(table, shard_count)
    src = sources[0] if shard_count == 1 else ExchangeUnion(sources)
    return Sort(src, target)


def merge_pipeline(table, shard_count, target):
    shards = [Sort(src, target) for src in shard_sources(table, shard_count)]
    return MergeExchange(shards, target)


@pytest.mark.parametrize("seed", range(20))
def test_merge_parity_random_plans(seed):
    rng = random.Random(20260730 + seed)
    cat = random_catalog(rng)
    table = cat.table("t")
    target = random_target(rng)
    shard_count = rng.choice([1, 2, 3, 5, 8])

    reference = None
    for batch_size in BATCH_SIZES:
        ref_ctx = ExecutionContext(cat, check_orders=True, batch_size=batch_size)
        expected = post_union_pipeline(table, shard_count, target).run(ref_ctx)
        ctx = ExecutionContext(cat, check_orders=True, batch_size=batch_size)
        got = merge_pipeline(table, shard_count, target).run(ctx)
        assert got == expected, (seed, target, shard_count, batch_size)
        if reference is None:
            reference = got
        else:  # the answer itself is batch-size invariant
            assert got == reference, (seed, target, shard_count, batch_size)


@pytest.mark.parametrize("seed", range(20))
def test_merge_counters_batch_size_independent(seed):
    """Simulated I/O and comparison tallies of the merge pipeline are a
    pure function of the data, not of the batching."""
    rng = random.Random(90 + seed)
    cat = random_catalog(rng)
    table = cat.table("t")
    target = random_target(rng)
    shard_count = rng.choice([2, 3, 5])

    def counters_at(batch_size):
        ctx = ExecutionContext(cat, batch_size=batch_size)
        rows = merge_pipeline(table, shard_count, target).run(ctx)
        return rows, (ctx.io.blocks_read, ctx.io.blocks_written,
                      ctx.comparisons.value, ctx.sort_metrics.runs_created,
                      ctx.sort_metrics.segments_sorted,
                      ctx.sort_metrics.in_memory_sorts)

    ref_rows, ref_counters = counters_at(1)
    for batch_size in (7, 64, 4096):
        rows, counters = counters_at(batch_size)
        assert rows == ref_rows, (seed, batch_size)
        assert counters == ref_counters, (seed, batch_size)


@pytest.mark.parametrize("seed", range(8))
def test_session_parity_optimizer_chooses(seed):
    """Through the serving layer: whatever enforcer placement the
    optimizer picks at any parallelism and batch size, the answer is
    bit-identical to the serial (post-union) plan."""
    rng = random.Random(777 + seed)
    num_rows = rng.choice([500, 2000, 8000])
    rows_per_segment = rng.choice([10, 100, num_rows // 2 or 1])
    memory_blocks = rng.choice([50, 200, 10_000])
    catalog = segmented_catalog(
        num_rows, rows_per_segment, seed=seed,
        params=SystemParameters(sort_memory_blocks=memory_blocks))
    query = Query.table("r").order_by(*rng.choice([("c2",), ("c1", "c2"),
                                                   ("c2", "c1")]))

    session = QuerySession(catalog)
    post_union = session.prepare(query, parallelism=1)
    reference = post_union.execute()
    for parallelism in (2, 4):
        for batch_size in BATCH_SIZES:
            assert session.execute(query, parallelism=parallelism,
                                   batch_size=batch_size) == reference, \
                (seed, parallelism, batch_size)
