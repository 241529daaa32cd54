"""Shard-aware enforcer placement: the optimizer's cost-based choice
between one post-union sort and per-shard SRS/MRS enforcers under a
MergeExchange, the serving-layer counters, plan-cache keying, and the
end-to-end acceptance scenario on the large synthetic workload."""

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import (
    ExchangeUnion,
    ExecutionContext,
    RangePartitionScan,
    Sort,
    TableScan,
)
from repro.logical import Query
from repro.optimizer import Optimizer
from repro.service import QuerySession
from repro.storage import SystemParameters
from repro.workloads import segmented_catalog


def spill_catalog(num_rows=8000, rows_per_segment=100, memory_blocks=200):
    """The post-union sort spills (B > M) while one quarter/half shard
    fits in sort memory (B/k <= M) — the regime where per-shard
    enforcement wins outright."""
    return segmented_catalog(
        num_rows, rows_per_segment,
        params=SystemParameters(sort_memory_blocks=memory_blocks))


class TestEnforcerChoice:
    def test_picks_per_shard_merge_when_cheaper(self):
        catalog = spill_catalog()
        query = Query.table("r").order_by("c2")  # no prefix → SRS enforcers
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)

        merges = prepared.plan.find_all("MergeExchange")
        assert len(merges) == 1
        assert [c.op for c in merges[0].children] == ["Sort"] * 4
        assert [c.children[0].op for c in merges[0].children] == \
            ["ShardedScan"] * 4

        # The post-union baseline: planned oblivious to the fan-out.
        baseline = QuerySession(catalog)
        post_union = baseline.prepare(query, parallelism=1)
        assert post_union.plan.find_all("MergeExchange") == []
        assert prepared.total_cost < post_union.total_cost

        assert session.stats()["shard_merge_plans"] == 1
        assert session.stats()["post_union_sort_plans"] == 0
        assert baseline.stats()["shard_merge_plans"] == 0

    def test_falls_back_to_post_union_when_not_cheaper(self):
        """Everything fits in sort memory: the per-shard CPU exactly
        cancels against the merge term, and the tie resolves to the
        simpler post-union plan."""
        catalog = segmented_catalog(500, 50)  # 25 blocks << 10,000-block memory
        query = Query.table("r").order_by("c2")
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)
        assert prepared.plan.find_all("MergeExchange") == []
        assert prepared.plan.find_all("Sort")
        assert session.stats()["post_union_sort_plans"] == 1
        assert session.stats()["shard_merge_plans"] == 0
        # And the fallback plan runs as planned: no fan-out anywhere.
        assert prepared.plan.find_all("ShardedScan") == []
        assert prepared.execute() == session.execute(query)

    def test_per_shard_mrs_on_oversized_segments(self):
        """ORDER BY (c1, c2) over clustering (c1) with segments larger
        than sort memory: post-union MRS spills per segment, while the
        shard boundaries cut segments down to memory-sized pieces — the
        per-shard enforcers are PartialSorts and the executed pipeline
        avoids run I/O entirely."""
        catalog = spill_catalog(num_rows=8000, rows_per_segment=4000,
                                memory_blocks=100)
        query = Query.table("r").order_by("c1", "c2")
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)
        merges = prepared.plan.find_all("MergeExchange")
        assert len(merges) == 1
        assert [c.op for c in merges[0].children] == ["PartialSort"] * 4

        post_union = QuerySession(catalog).prepare(query, parallelism=1)
        assert prepared.total_cost < post_union.total_cost

        merge_ctx = ExecutionContext(catalog)
        post_ctx = ExecutionContext(catalog)
        assert prepared.execute(merge_ctx) == post_union.execute(post_ctx)
        assert merge_ctx.sort_metrics.runs_created == 0   # pipelined MRS
        assert post_ctx.sort_metrics.runs_created > 0     # segment spills
        assert post_ctx.cost_units() >= 1.5 * merge_ctx.cost_units()

    def test_tiny_tables_left_unsharded(self):
        """Fewer rows than shards: ``shardable`` says no, so the search
        proposes no fan-out and the plan scans the table whole."""
        from repro.engine import shardable
        from repro.storage import Catalog, Schema

        catalog = Catalog(SystemParameters(sort_memory_blocks=2))
        catalog.create_table("tiny", Schema.of(("a", "int", 8), ("b", "int", 8)),
                             rows=[(1, 2), (2, 1)])
        assert not shardable(catalog.table("tiny"), 8)
        session = QuerySession(catalog)
        prepared = session.prepare(Query.table("tiny").order_by("b"),
                                   parallelism=8)
        assert [p.op for p in prepared.plan.walk()] == ["Sort", "TableScan"]
        assert prepared.execute() == [(2, 1), (1, 2)]

    def test_parallelism_one_is_oblivious(self):
        catalog = spill_catalog()
        query = Query.table("r").order_by("c2")
        plain = Optimizer(catalog).optimize(query)
        explicit = Optimizer(catalog).optimize(query, parallelism=1)
        assert plain.signature() == explicit.signature()
        assert plain.find_all("MergeExchange") == []


class TestServingIntegration:
    def test_plan_cache_keyed_by_parallelism(self):
        catalog = spill_catalog()
        query = Query.table("r").order_by("c2")
        session = QuerySession(catalog)
        serial = session.prepare(query)
        sharded = session.prepare(query, parallelism=4)
        assert session.metrics.optimizations == 2  # no cross-fan-out hit
        assert serial.plan.signature() != sharded.plan.signature()
        again = session.prepare(query, parallelism=4)
        assert again.from_cache
        assert again.plan.signature() == sharded.plan.signature()
        assert session.prepare(query).from_cache  # serial entry intact


class TestAcceptance:
    """ISSUE acceptance: on the large synthetic workload with 4 shards,
    an ordered query prepared at parallelism=4 lowers
    to per-shard SRS/MRS + MergeExchange when cheaper, with simulated
    cost strictly below the post-union full-sort plan and bit-identical
    output at batch sizes {1, 64, default}."""

    @pytest.fixture(scope="class")
    def catalog(self):
        return spill_catalog(num_rows=20_000, rows_per_segment=100,
                             memory_blocks=500)

    def test_end_to_end(self, catalog):
        query = Query.table("r").order_by("c2")
        session = QuerySession(catalog)

        prepared = session.prepare(query, parallelism=4)
        post_union = QuerySession(catalog).prepare(query, parallelism=1)
        merges = prepared.plan.find_all("MergeExchange")
        assert len(merges) == 1 and len(merges[0].children) == 4
        assert prepared.total_cost < post_union.total_cost  # strictly below

        reference = session.execute(query)  # serial plan
        for batch_size in (1, 64, None):
            assert session.execute(query, parallelism=4,
                                   batch_size=batch_size) == reference
        merge_ctx, post_ctx = ExecutionContext(catalog), ExecutionContext(catalog)
        assert prepared.execute(merge_ctx) == reference
        assert post_union.execute(post_ctx) == reference
        assert post_ctx.cost_units() >= 1.5 * merge_ctx.cost_units()
        assert merge_ctx.sort_metrics.runs_created == 0   # shards fit in memory
        assert post_ctx.sort_metrics.runs_created > 0     # full sort spilled


# -- shard-aware enforcement under joins and aggregates -----------------------------------
import random

from repro.core.sort_order import EMPTY_ORDER
from repro.expr import col
from repro.expr.aggregates import agg_avg, agg_sum, count_star
from repro.optimizer.cost import CostModel, prefer_sharded
from repro.storage import Catalog, RangePartitioning, Schema, StatsView


def join_agg_catalog(num_rows=20_000, memory_blocks=500, c2_domain=2000,
                     dim_rows=2000, seed=3, cpu_comparisons_per_io=200_000.0):
    """Large synthetic ``r`` (200-byte rows, clustered on c1, c2 in a
    bounded domain) plus a small ``dim`` keyed on that domain — the
    sort-order-consuming join+aggregate scenario: joining on c2 needs a
    spilling sort of r, which per-shard enforcement avoids."""
    catalog = segmented_catalog(
        num_rows, 100,
        params=SystemParameters(sort_memory_blocks=memory_blocks,
                                cpu_comparisons_per_io=cpu_comparisons_per_io))
    rng = random.Random(seed)
    table = catalog.table("r")
    table._rows[:] = [(i // 100, rng.randrange(c2_domain), "p")
                      for i in range(num_rows)]
    table._sort_rows_by(SortOrder(["c1"]))
    table.update_stats()
    dim_schema = Schema.of(("d2", "int", 8), ("weight", "int", 8))
    step = max(1, c2_domain // dim_rows)
    catalog.create_table(
        "dim", dim_schema,
        rows=[(v * step, rng.randrange(10)) for v in range(dim_rows)],
        primary_key=["d2"])
    return catalog


def copartitioned_catalog():
    """``ta`` and ``tb``, range-partitioned on their join keys with the
    same bounds; a monolithic hash build spills, a partition's fits."""
    rng = random.Random(9)
    catalog = Catalog(SystemParameters(sort_memory_blocks=100))
    bounds = (2000, 4000, 6000)
    for prefix in ("a", "b"):
        schema = Schema.of((f"{prefix}_k", "int", 8),
                           (f"{prefix}_v", "int", 8),
                           (f"{prefix}_pad", "str", 180))
        rows = [(rng.randrange(8000), rng.randrange(100), "x")
                for _ in range(8000)]
        catalog.create_table(
            f"t{prefix}", schema, rows=rows,
            clustering_order=SortOrder([f"{prefix}_k"]),
            partitioning=RangePartitioning(f"{prefix}_k", bounds))
    return catalog


class TestShardedJoins:
    def test_enforcer_composes_below_merge_join(self):
        """The PR-3 enforcer win composes under a join: the join's sorted
        left input is delivered by per-shard sorts under a MergeExchange,
        and the aggregation above consumes the join's order."""
        catalog = join_agg_catalog()
        query = (Query.table("r")
                 .join("dim", on=[("c2", "d2")])
                 .group_by(["c2"], agg_sum(col("weight"), "w"))
                 .order_by("c2"))
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)
        post_union = QuerySession(catalog).prepare(query, parallelism=1)

        merges = prepared.plan.find_all("MergeExchange")
        assert merges and len(merges[0].children) == 4
        assert prepared.plan.find_all("MergeJoin")
        assert prepared.plan.find_all("SortAggregate")
        assert prepared.total_cost < post_union.total_cost
        assert session.stats()["shard_merge_plans"] == 1

        reference = session.execute(query)
        for batch_size in (1, 64, None):
            assert session.execute(query, parallelism=4,
                                   batch_size=batch_size) == reference

        # Metered, not only estimated: the shard-oblivious plan pays spill
        # I/O (a Grace hash build here) that per-shard enforcement avoids.
        merge_ctx, post_ctx = ExecutionContext(catalog), ExecutionContext(catalog)
        assert prepared.execute(merge_ctx) == reference
        assert post_union.execute(post_ctx) == reference
        assert merge_ctx.sort_metrics.runs_created == 0
        assert post_ctx.cost_units() >= 1.5 * merge_ctx.cost_units()

    def test_broadcast_sharded_merge_join(self):
        """A selective join (tiny broadcast side, output ≪ input) under
        an expensive CPU→I/O translation: merging the join's 500-row
        output beats merging the 20 000-row left input, so the optimizer
        pushes the join below the exchange — per-shard MergeJoins against
        a broadcast right side, gathered on the join permutation."""
        catalog = join_agg_catalog(dim_rows=50,
                                   cpu_comparisons_per_io=2_000.0)
        query = Query.table("r").join("dim", on=[("c2", "d2")]).order_by("c2")
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)
        merges = prepared.plan.find_all("MergeExchange")
        assert merges and [c.op for c in merges[0].children] == ["MergeJoin"] * 4
        # The broadcast side appears once per shard.
        assert len(prepared.plan.find_all("TableScan")) == 4
        assert session.stats()["sharded_join_plans"] == 1

        assert prepared.total_cost < \
            QuerySession(catalog).prepare(query, parallelism=1).total_cost
        reference = session.execute(query)
        assert session.execute(query, parallelism=4) == reference
        assert session.execute(query, parallelism=4, batch_size=1) == reference

    def test_copartitioned_hash_join_skips_grace_spill(self):
        """Range-co-partitioned inputs hash-join partition against
        partition: per-partition builds fit in sort memory, so the Grace
        partition-spill I/O of a monolithic build disappears — and FULL
        OUTER joins (unshardable by broadcast) shard this way too."""
        catalog = copartitioned_catalog()
        query = Query.table("ta").full_outer_join("tb", on=[("a_k", "b_k")])
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)
        unions = prepared.plan.find_all("ExchangeUnion")
        assert unions and [c.op for c in unions[0].children] == ["HashJoin"] * 4
        assert all(c.children[0].op == "RangePartitionScan"
                   for c in unions[0].children)
        assert session.stats()["sharded_join_plans"] == 1

        key = lambda row: tuple((v is not None, v if v is not None else 0)
                                for v in row)
        reference = sorted(session.execute(query), key=key)
        for batch_size in (1, None):
            got = session.execute(query, parallelism=4, batch_size=batch_size)
            assert sorted(got, key=key) == reference


class TestShardedAggregates:
    def test_per_shard_aggregation_with_final_combine(self):
        """Groups ≪ rows: aggregating below the exchange merges one
        partial row per per-shard group instead of every input row, and a
        SortedCombine folds boundary-straddling groups exactly."""
        catalog = join_agg_catalog(c2_domain=200, dim_rows=200)
        query = Query.table("r").group_by(
            ["c2"], count_star("n"), agg_sum(col("c1"), "s")).order_by("c2")
        session = QuerySession(catalog, enable_hash_aggregate=False)
        prepared = session.prepare(query, parallelism=4)
        combines = prepared.plan.find_all("SortedCombine")
        assert len(combines) == 1
        merge = combines[0].children[0]
        assert merge.op == "MergeExchange"
        assert [c.op for c in merge.children] == ["SortAggregate"] * 4
        assert session.stats()["sharded_agg_plans"] == 1

        reference = session.execute(query)
        for batch_size in (1, 64, None):
            assert session.execute(query, parallelism=4,
                                   batch_size=batch_size) == reference
        # Recombination is exact: totals equal the table row count.
        assert sum(row[1] for row in reference) == 20_000

    def test_non_combinable_aggregate_stays_unsharded(self):
        """avg has no exact combiner, so the aggregation itself is never
        sharded (the enforcer below it still may be)."""
        catalog = join_agg_catalog(c2_domain=200, dim_rows=200)
        query = Query.table("r").group_by(
            ["c2"], agg_avg(col("c1"), "m")).order_by("c2")
        session = QuerySession(catalog, enable_hash_aggregate=False)
        prepared = session.prepare(query, parallelism=4)
        assert prepared.plan.find_all("SortedCombine") == []
        assert session.stats()["sharded_agg_plans"] == 0
        reference = session.execute(query)
        assert session.execute(query, parallelism=4) == reference


def duplicate_heavy_catalog(seed=5, memory_blocks=100):
    """5000 × 216-byte rows, every tuple duplicated once, small column
    domains: measured per-shard distinct counts sit well below the shard
    row counts, so deduplicating *below* the merge shrinks the gather,
    while the hash-dedup's output sort spills and per-shard sorts fit."""
    import random

    from repro.storage import Catalog, Schema

    rng = random.Random(seed)
    catalog = Catalog(SystemParameters(sort_memory_blocks=memory_blocks))
    schema = Schema.of(("a", "int", 8), ("b", "int", 200), ("c", "int", 8))
    base = [(rng.randrange(40), rng.randrange(10), rng.randrange(5))
            for _ in range(2500)]
    rows = base * 2
    rng.shuffle(rows)
    catalog.create_table("t", schema, rows=rows,
                         clustering_order=SortOrder(["a"]))
    return catalog


class TestShardedDistinct:
    def test_per_shard_dedup_under_merge_with_final_dedup(self):
        catalog = duplicate_heavy_catalog()
        # ORDER BY leads off-clustering so the enforcers are full sorts.
        query = Query.table("t").distinct().order_by("b", "c", "a")
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)

        root = prepared.plan
        assert root.op == "Dedup"           # merge-level final dedup
        merge = root.children[0]
        assert merge.op == "MergeExchange"
        assert [c.op for c in merge.children] == ["Dedup"] * 4
        assert all(c.children[0].op == "Sort" for c in merge.children)
        assert session.stats()["sharded_distinct_plans"] == 1

        reference = session.execute(query)
        assert len(set(reference)) == len(reference)  # really DISTINCT
        assert reference == sorted(reference,
                                   key=lambda r: (r[1], r[2], r[0]))
        for batch_size in (1, 64, None):
            assert session.execute(query, parallelism=4,
                                   batch_size=batch_size) == reference
        checked = ExecutionContext(catalog, check_orders=True)
        assert prepared.execute(ctx=checked) == reference

    def test_cost_gate_keeps_unsharded_dedup_when_not_cheaper(self):
        """High-cardinality rows: per-shard distincts equal the shard row
        counts, so deduplicating below the merge saves nothing and the
        extra final-dedup pass loses the gate."""
        import random

        from repro.storage import Catalog, Schema

        rng = random.Random(2)
        catalog = Catalog(SystemParameters(sort_memory_blocks=40))
        schema = Schema.of(("a", "int", 8), ("b", "int", 64), ("c", "int", 8))
        base = [(rng.randrange(2000), rng.randrange(2000), rng.randrange(2000))
                for _ in range(2500)]
        rows = base * 2
        rng.shuffle(rows)
        catalog.create_table("t", schema, rows=rows,
                             clustering_order=SortOrder(["a"]))
        query = Query.table("t").distinct().order_by("b", "a", "c")
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)
        # The enforcers still go per shard, but the dedup stays above.
        root = prepared.plan
        assert root.op == "Dedup"
        assert root.children[0].op == "MergeExchange"
        assert all(c.op == "Sort" for c in root.children[0].children)
        assert session.stats()["sharded_distinct_plans"] == 0
        assert session.execute(query, parallelism=4) == session.execute(query)

    def test_parallelism_one_never_shards_distinct(self):
        catalog = duplicate_heavy_catalog()
        query = Query.table("t").distinct().order_by("b", "c", "a")
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=1)
        assert prepared.plan.find_all("MergeExchange") == []
        assert session.stats()["sharded_distinct_plans"] == 0


def skewed_range_catalog(seed=17, memory_blocks=150):
    """8000 × 200-byte rows (400 blocks — a post-union SRS spills) with a
    range partitioning whose first partition holds ~90% of the rows: the
    regime where uniform ``scaled(1/k)`` per-shard estimates and measured
    per-partition statistics disagree about spilling."""
    rng = random.Random(seed)
    schema = Schema.of(("k", "int", 8), ("v", "int", 8), ("pad", "str", 184))
    rows = []
    for i in range(8000):
        k = rng.randrange(0, 900) if i % 10 else rng.randrange(900, 1000)
        rows.append((k, rng.randrange(1_000_000), "p"))
    catalog = Catalog(SystemParameters(sort_memory_blocks=memory_blocks))
    catalog.create_table("t", schema, rows=rows,
                         clustering_order=SortOrder(["k"]),
                         partitioning=RangePartitioning("k", (900, 940, 970)))
    return catalog


class TestPerShardStatistics:
    def test_uniform_estimate_flips_placement_measured_fixes_it(self):
        """The satellite regression: under the uniform ``scaled(1/k)``
        model the skewed range fan-out looks identical to contiguous
        shards *minus* the heap merge (its partitions are disjoint on the
        leading sort attribute), so the uniform estimate picks range
        partitions — whose dominant partition actually spills.  Measured
        per-partition row counts expose the spill, the optimizer keeps
        contiguous equal shards, and execution confirms nothing spills."""
        catalog = skewed_range_catalog()
        table = catalog.table("t")
        model = CostModel(catalog.params)
        stats = StatsView.of_table(table.schema, table.stats)
        target = SortOrder(["k", "v"])
        clustered = SortOrder(["k"])

        range_uniform = model.sharded_coe(stats, clustered, target, 4,
                                          partial_enabled=False,
                                          disjoint_merge=True)
        contiguous_uniform = model.sharded_coe(stats, clustered, target, 4,
                                               partial_enabled=False)
        partition_views = [StatsView.of_table(table.schema, s)
                           for s in table.partition_stats()]
        range_measured = model.sharded_coe(stats, clustered, target, 4,
                                           partial_enabled=False,
                                           shard_stats=partition_views,
                                           disjoint_merge=True)
        shard_views = [StatsView.of_table(table.schema, s)
                      for s in table.shard_stats(4)]
        contiguous_measured = model.sharded_coe(stats, clustered, target, 4,
                                                partial_enabled=False,
                                                shard_stats=shard_views)
        # Uniform flips to range; measured keeps contiguous.
        assert range_uniform < contiguous_uniform
        assert contiguous_measured < range_measured
        # And the skewed partition genuinely spills (the measured numbers
        # price real run I/O, not just a reshuffled tie).
        assert range_measured > 100 * contiguous_measured

        session = QuerySession(catalog, strategy="pyro-o-")  # SRS enforcers
        prepared = session.prepare(Query.table("t").order_by("k", "v"),
                                   parallelism=4)
        merges = prepared.plan.find_all("MergeExchange")
        assert merges
        assert [c.children[0].op for c in merges[0].children] == \
            ["ShardedScan"] * 4  # contiguous, not the spilling range plan
        ctx = ExecutionContext(catalog)
        prepared.execute(ctx)
        assert ctx.sort_metrics.runs_created == 0


class TestRangePartitionedEnforcement:
    def test_disjoint_merge_skips_the_heap(self):
        """Per-partition sorts of a range-partitioned table concatenate
        without heap comparisons when the planner declares them disjoint
        on the leading merge column; undeclared, the same children merge."""
        from repro.engine import MergeExchange as EngineMergeExchange
        from repro.engine import RangePartitionScan

        rng = random.Random(7)
        catalog = Catalog(SystemParameters())
        schema = Schema.of(("k", "int", 8), ("v", "int", 8))
        rows = [(rng.randrange(1000), rng.randrange(50)) for _ in range(4000)]
        catalog.create_table("t", schema, rows=rows,
                             partitioning=RangePartitioning("k", (250, 500, 750)))
        table = catalog.table("t")
        order = SortOrder(["k", "v"])
        children = [Sort(RangePartitionScan(table, i), order) for i in range(4)]
        exchange = EngineMergeExchange(children, order, disjoint=True)
        assert exchange.partition_disjoint

        merged_ctx = ExecutionContext(catalog, check_orders=True)
        merged = exchange.run(merged_ctx)
        reference_ctx = ExecutionContext(catalog)
        reference = Sort(TableScan(table), order).run(reference_ctx)
        assert merged == reference
        # The heap would have paid ~N·log2(k) comparisons on top of the
        # sorts; concatenation pays none, so the disjoint gather does
        # strictly fewer comparisons than the monolithic sort.
        assert merged_ctx.comparisons.value < reference_ctx.comparisons.value

        # The declaration is the only source: the engine does not detect
        # the shape, so the undeclared gather pays the k-way merge.
        undeclared = EngineMergeExchange(children, order)
        assert not undeclared.partition_disjoint
        heap_ctx = ExecutionContext(catalog)
        assert undeclared.run(heap_ctx) == reference
        assert heap_ctx.comparisons.value == \
            merged_ctx.comparisons.value + 2 * len(rows)  # N * ceil(log2 4)

    def test_wrong_disjoint_declaration_raises(self):
        """Overlapping shards declared disjoint: each input is sorted, so
        the per-input checks pass, but the concatenation is not — the
        checked output catches what used to come back unsorted silently."""
        from repro.engine import MergeExchange as EngineMergeExchange
        from repro.engine import RowSource

        schema = Schema.of(("k", "int", 8), ("v", "int", 8))
        order = SortOrder(["k", "v"])
        shards = [RowSource(schema, [(k, s) for k in range(s, 12, 2)], order)
                  for s in range(2)]
        exchange = EngineMergeExchange(shards, order, disjoint=True)
        with pytest.raises(AssertionError, match="disjoint concat output"):
            exchange.run(ExecutionContext(check_orders=True))
        merged = EngineMergeExchange(shards, order).run(
            ExecutionContext(check_orders=True))
        assert merged == sorted(merged)

    def test_disjoint_merge_passes_child_batches_through(self):
        """The disjoint gather neither compares nor re-chunks: its output
        is the very batch objects its children produced, in shard order
        (it used to re-batch them one row at a time)."""
        from repro.engine import MergeExchange as EngineMergeExchange
        from repro.engine import RowSource

        schema = Schema.of(("k", "int", 8), ("v", "int", 8))
        order = SortOrder(["k", "v"])
        shards = [RowSource(schema, [(10 * s + i // 3, i) for i in range(7)],
                            order) for s in range(3)]
        exchange = EngineMergeExchange(shards, order, disjoint=True)
        produced: list = []

        def recording(source):
            def execute_batches(ctx):
                for batch in RowSource.execute_batches(source, ctx):
                    produced.append(batch)
                    yield batch
            return execute_batches

        for shard in shards:
            shard.execute_batches = recording(shard)
        ctx = ExecutionContext(batch_size=3, check_orders=True)
        gathered = list(exchange.execute_batches(ctx))
        assert [len(b) for b in gathered] == [3, 3, 1] * 3
        assert all(out is made for out, made in zip(gathered, produced))
        assert ctx.comparisons.value == 0

    def test_filtered_partition_scan_charges_full_table(self):
        """On a table not clustered on the partition column, each
        partition scan reads (and pays for) every block."""
        from repro.engine import RangePartitionScan

        catalog = Catalog(SystemParameters())
        schema = Schema.of(("k", "int", 8), ("v", "int", 8))
        rows = [(i % 10, i) for i in range(4096)]
        catalog.create_table("t", schema, rows=rows,
                             partitioning=RangePartitioning("k", (5,)))
        table = catalog.table("t")
        full_ctx = ExecutionContext(catalog)
        TableScan(table).run(full_ctx)
        part_ctx = ExecutionContext(catalog)
        part_rows = RangePartitionScan(table, 0).run(part_ctx)
        assert part_ctx.io.blocks_read == full_ctx.io.blocks_read
        assert part_rows == [r for r in rows if r[0] < 5]

    def test_all_partitions_keep_clustered_order(self):
        """The range partitions of a table clustered on the partition
        column tile the clustered sequence: an ExchangeUnion over all of
        them, in order, guarantees the clustering order and concatenates
        to exactly the full scan — so an enforcer above may use it as a
        known prefix.  A subset of the partitions guarantees nothing."""
        rng = random.Random(11)
        catalog = Catalog(SystemParameters(sort_memory_blocks=20))
        schema = Schema.of(("k", "int", 64), ("v", "int", 64))
        rows = [(rng.randrange(100), rng.randrange(50)) for _ in range(2000)]
        catalog.create_table("t", schema, rows=rows,
                             clustering_order=SortOrder(["k"]),
                             partitioning=RangePartitioning("k", (25, 50, 75)))
        table = catalog.table("t")
        partitions = [RangePartitionScan(table, i) for i in range(4)]
        gather = ExchangeUnion(partitions)
        assert gather.output_order == table.clustering_order
        assert ExchangeUnion(partitions[1:]).output_order == EMPTY_ORDER
        assert gather.run(ExecutionContext(catalog)) == \
            TableScan(table).run(ExecutionContext(catalog))
        order = SortOrder(["k", "v"])
        checked = ExecutionContext(catalog, check_orders=True)
        assert Sort(gather, order).run(checked) == \
            Sort(TableScan(table), order, algorithm="srs").run(
                ExecutionContext(catalog))


class TestServingKnobs:
    def test_partition_spec_salts_the_cache(self):
        """Declaring (or changing) a range partition spec bumps the
        table version, so cached plans for that table re-optimize."""
        catalog = skewed_range_catalog()
        query = Query.table("t").order_by("k", "v")
        session = QuerySession(catalog)
        first = session.prepare(query, parallelism=4)
        assert session.prepare(query, parallelism=4).from_cache
        catalog.table("t").set_partitioning(
            RangePartitioning("k", (450, 900, 950)))
        replanned = session.prepare(query, parallelism=4)
        assert not replanned.from_cache
        assert session.metrics.optimizations == 2

    def test_refresh_stats_invalidates_per_shard_decision(self):
        """refresh_stats drops the measured per-shard caches and the
        cached plan, so the next prepare re-decides placement from the
        new boundaries."""
        catalog = spill_catalog()
        query = Query.table("r").order_by("c2")
        session = QuerySession(catalog)
        prepared = session.prepare(query, parallelism=4)
        assert prepared.plan.find_all("MergeExchange")
        table = catalog.table("r")
        first_shard_stats = table.shard_stats(4)
        catalog.refresh_stats("r")
        assert table.shard_stats(4) is not first_shard_stats
        again = session.prepare(query, parallelism=4)
        assert not again.from_cache
        assert session.metrics.optimizations == 2

    def test_decision_counters_account_once_per_fresh_plan(self):
        """Counters tick on fresh optimizations only — cache hits do not
        double-count — and each counter tracks its own plan family."""
        catalog = join_agg_catalog(c2_domain=200, dim_rows=200)
        session = QuerySession(catalog, enable_hash_aggregate=False)
        agg_query = Query.table("r").group_by(
            ["c2"], count_star("n")).order_by("c2")
        session.prepare(agg_query, parallelism=4)
        session.prepare(agg_query, parallelism=4)  # cache hit
        stats = session.stats()
        assert stats["sharded_agg_plans"] == 1
        assert stats["shard_merge_plans"] == 1
        assert stats["sharded_join_plans"] == 0
        assert stats["cache_hits"] == 1


def test_gate_clone_and_gather_are_stated_once():
    """Every below-the-exchange alternative goes through the same three
    steps, so across ``src/repro`` the tie-break gate is called from the
    enforcer's estimate and the gather builder only, one function builds
    a ``MergeExchange`` node, and one function clones a chain per shard.

    What a node's schema, order, statistics and cost are is stated once
    as well: only the builder module calls ``make_plan`` or re-prices a
    node (``dataclasses.replace(..., self_cost=)``).  And a sharded
    operator is one constructor plus one call of the driver: nothing but
    the driver and the enforcer placement assembles a gather, and no
    alternative survives as its own method."""
    import ast
    from pathlib import Path

    import repro
    from repro.optimizer.pipeline import PhysicalSelection

    def calls(node, function=None):
        """``(enclosing function name, called name, Call)`` per call."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                yield function, name, child
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            yield from calls(child, inner)

    gates, gather_builders, clone_callers = [], set(), set()
    node_makers, repricers, gatherers = set(), set(), set()
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for function, name, call in calls(ast.parse(path.read_text())):
            site = f"{path.name}:{function}"
            if name == "prefer_sharded":
                gates.append(site)
            elif name == "shard_of" and function != "shard_of":
                clone_callers.add(site)
            elif name == "make_plan":
                node_makers.add(path.name)
                if getattr(call.args[0], "value", None) == "MergeExchange":
                    gather_builders.add(site)
            elif name == "replace" and any(
                    keyword.arg == "self_cost" for keyword in call.keywords):
                repricers.add(path.name)
            elif name == "_gathered":
                gatherers.add(site)
    assert len(gates) <= 2, gates
    assert len(gather_builders) == 1, gather_builders
    assert len(clone_callers) == 1, clone_callers
    assert node_makers == {"manual.py"} and repricers <= node_makers, (
        node_makers, repricers)
    assert gatherers == {"physical_selection.py:_and_sharded",
                         "physical_selection.py:_sharded_enforcement"}
    assert not [name for name in vars(PhysicalSelection)
                if name.endswith("_alternative") or "hash_join" in name]
