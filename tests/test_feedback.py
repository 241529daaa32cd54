"""Adaptive statistics and feedback-driven re-optimization.

Covers the estimate→execution feedback loop end to end:

* :class:`~repro.storage.statistics.DistinctSketch` — merge semantics
  (register-wise max == sketch of the unioned value sets, commutative,
  idempotent), estimation accuracy, cross-process determinism via
  pickling;
* the overlap-aware union estimate — summing per-branch distinct counts
  double-counts overlapping domains; the sketch union does not, and the
  difference flips the optimizer's enforcer placement around a union
  (one sort above the dedup vs a full sort per branch);
* per-operator estimated-vs-actual row tallies
  (``ExecutionContext.operator_rows``) — stamped at lowering, counted at
  execution, bit-identical across serial / threaded / process-pool
  backends over a fuzz-corpus subset;
* drift detection and re-optimization — a query whose scan actuals leave
  the drift band refreshes the catalog statistics, invalidates the
  cached plan, and converges to a cheaper plan under live
  ``QueryServer`` traffic, without ever changing result rows;
* range-partition disjointness through serving-side re-assembly — the
  ``disjoint`` plan arg is the only witness the gather has (RowSource
  children defeat operator-shape re-detection), so comparison tallies
  stay identical to local execution;
* the greedy many-to-many enumerator's measured path — per-shard distinct
  sketches reveal duplicate-heavy columns the declared statistics are
  silent about, and the resulting join order moves fewer rows.
"""

import concurrent.futures
import pickle
import random

import pytest

from repro.core.sort_order import SortOrder
from repro.engine import ExecutionContext
from repro.engine.exchange import MergeExchange
from repro.engine.subplan import ShardStream, assemble_streams, shard_subplans
from repro.logical import Query
from repro.optimizer import GreedyManyToManyEnumerator, Optimizer
from repro.service import FeedbackConfig, QuerySession, QueryServer, make_backend
from repro.service.feedback import scan_table
from repro.storage import (
    Catalog,
    DistinctSketch,
    RangePartitioning,
    Schema,
    StatsView,
    SystemParameters,
    TableStats,
)

import test_plan_fuzz as fuzz
from test_server import reconciles


# -- DistinctSketch ----------------------------------------------------------------------
class TestDistinctSketch:
    def test_estimate_accuracy(self):
        for n in (0, 1, 5, 50, 500, 5000, 20000):
            sketch = DistinctSketch.of_values(range(n))
            assert sketch.estimate() == pytest.approx(n, abs=1, rel=0.1)

    def test_union_is_sketch_of_unioned_value_sets(self):
        rng = random.Random(7)
        left = {rng.randrange(10_000) for _ in range(2000)}
        right = {rng.randrange(10_000) for _ in range(2000)}
        merged = DistinctSketch.of_values(left).union(
            DistinctSketch.of_values(right))
        direct = DistinctSketch.of_values(left | right)
        assert bytes(merged.registers) == bytes(direct.registers)
        assert merged.estimate() == pytest.approx(len(left | right), rel=0.1)

    def test_union_commutative_and_idempotent(self):
        a = DistinctSketch.of_values(range(100))
        b = DistinctSketch.of_values(range(50, 200))
        ab, ba = a.union(b), b.union(a)
        assert bytes(ab.registers) == bytes(ba.registers)
        assert bytes(a.union(a).registers) == bytes(a.registers)

    def test_overlap_not_double_counted(self):
        # Identical value sets: the merged estimate stays ~n, the
        # no-overlap sum would claim 2n.
        a = DistinctSketch.of_values(range(1000))
        b = DistinctSketch.of_values(range(1000))
        assert a.union(b).estimate() == pytest.approx(1000, rel=0.1)

    def test_pickle_roundtrip(self):
        sketch = DistinctSketch.of_values(range(333))
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.p == sketch.p
        assert bytes(clone.registers) == bytes(sketch.registers)
        assert clone.estimate() == sketch.estimate()

    def test_validation(self):
        with pytest.raises(ValueError):
            DistinctSketch(p=3)
        with pytest.raises(ValueError):
            DistinctSketch(p=10, registers=b"\x00" * 7)
        with pytest.raises(ValueError):
            DistinctSketch(p=10).union(DistinctSketch(p=11))

    def test_measured_stats_carry_sketches(self):
        schema = Schema.of(("a", "int", 8), ("b", "int", 8))
        rows = [(i % 13, i % 7) for i in range(200)]
        stats = TableStats.measure(rows, schema)
        assert set(stats.sketches) == {"a", "b"}
        assert stats.sketches["a"].estimate() == pytest.approx(13, abs=1)
        assert stats.sketches["b"].estimate() == pytest.approx(7, abs=1)


# -- the union distinct estimate (the double-count fix) ----------------------------------
def overlap_catalog(with_sketches=True, num_rows=2000, domain=30):
    """Two unclustered tables over the same value domain — a union's
    worst case for the no-overlap estimate.  ``with_sketches=False``
    restores the pre-sketch estimator (sum of per-branch distincts)."""
    rng = random.Random(5)
    catalog = Catalog(SystemParameters(sort_memory_blocks=8))
    schema = Schema.of(("a", "int", 64), ("b", "int", 64))
    for name in ("u1", "u2"):
        rows = [(rng.randrange(domain), rng.randrange(domain))
                for _ in range(num_rows)]
        catalog.create_table(name, schema, rows=rows)
    if not with_sketches:
        for table in catalog.tables():
            table.stats.sketches.clear()
    return catalog


class TestUnionEstimate:
    def test_overlapping_union_distinct_not_summed(self):
        catalog = overlap_catalog()
        u1, u2 = catalog.table("u1"), catalog.table("u2")
        left = StatsView.of_table(u1.schema, u1.stats)
        right = StatsView.of_table(u2.schema, u2.stats)
        merged = left.union(right)
        truth = len({row[0] for row in catalog.table("u1").rows}
                    | {row[0] for row in catalog.table("u2").rows})
        assert merged.distinct_of("a") == pytest.approx(truth, rel=0.1)
        # The no-overlap sum is ~2x the truth; without sketches the
        # estimator still falls back to it.
        no_overlap = left.distinct_of("a") + right.distinct_of("a")
        assert merged.distinct_of("a") < 0.75 * no_overlap
        blind = StatsView(left.schema, left.N,
                          {c: left.distinct_of(c) for c in left.schema.names})
        assert blind.union(right).distinct_of("a") == no_overlap

    def test_estimate_flips_enforcer_placement(self):
        """Pinned regression: with the summed estimate the dedup output
        looks nearly as big as the union input, so the optimizer sorts
        both branches below a MergeUnion; the sketch estimate reveals the
        overlap and one enforcer above HashDedup wins — and actually
        executes cheaper."""
        query = Query.table("u1").union("u2").order_by("a", "b")
        costs = {}
        ops = {}
        rows = {}
        for with_sketches in (True, False):
            catalog = overlap_catalog(with_sketches)
            plan = Optimizer(catalog).optimize(query)
            ops[with_sketches] = {p.op for p in plan.walk()}
            ctx = ExecutionContext(catalog)
            rows[with_sketches] = QuerySession(catalog).execute(query, ctx=ctx)
            costs[with_sketches] = ctx.cost_units()
        assert {"HashDedup", "UnionAll"} <= ops[True]
        assert "MergeUnion" not in ops[True]
        assert "MergeUnion" in ops[False]
        assert rows[True] == rows[False]
        assert costs[True] < costs[False]


# -- estimated-vs-actual operator tallies ------------------------------------------------
class TestOperatorRowTallies:
    def test_scan_estimates_exact_on_measured_stats(self):
        catalog = overlap_catalog()
        session = QuerySession(catalog)
        ctx = ExecutionContext(catalog)
        session.execute(Query.table("u1").order_by("a", "b"), ctx=ctx)
        assert ctx.operator_rows["TableScan:u1"] == [2000, 2000]

    def test_limit_truncated_scan_underruns_estimate(self):
        catalog = overlap_catalog()
        session = QuerySession(catalog)
        ctx = ExecutionContext(catalog)
        rows = session.execute(Query.table("u1").limit(5), ctx=ctx)
        assert len(rows) == 5
        estimated, actual = ctx.operator_rows["TableScan:u1"]
        assert estimated == 2000
        assert actual < estimated  # lazy scan stopped early

    def test_tallies_survive_absorb_and_reset(self):
        ctx = ExecutionContext()
        cell = ctx.meter_start("Sort", 10)
        cell[1] += 7
        child = {"blocks_read": 0, "blocks_written": 0, "scan_blocks": 0,
                 "run_blocks_written": 0, "run_blocks_read": 0,
                 "partition_blocks": 0, "comparisons": 0, "runs_created": 0,
                 "segments_sorted": 0, "rows_spilled": 0, "merge_passes": 0,
                 "in_memory_sorts": 0,
                 "operator_rows": {"Sort": (10, 8), "TableScan:t": (5, 5)}}
        ctx.absorb_tallies(child)
        assert ctx.tallies()["operator_rows"] == {
            "Sort": (20, 15), "TableScan:t": (5, 5)}
        # Pre-operator-rows tally dicts (older snapshots) still absorb.
        del child["operator_rows"]
        ctx.absorb_tallies(child)
        ctx.reset()
        assert ctx.operator_rows == {}

    def test_parity_across_backends_on_fuzz_corpus(self):
        """One prepared parallel plan, both execution strategies: the
        per-operator (estimated, actual) tallies are bit-identical —
        worker processes meter the same lowered operators the local
        engine does, and serving-side re-assembly stamps the gathered
        exchanges from the same plan stats."""
        for seed in range(fuzz.BASE_SEED, fuzz.BASE_SEED + 6):
            rng = random.Random(seed)
            catalog = fuzz.random_catalog(rng)
            query = fuzz.random_query(rng, catalog)
            prepared = QuerySession(catalog).prepare(query, parallelism=4)
            serial = ExecutionContext(catalog)
            reference = prepared.execute(ctx=serial)
            backend = make_backend("process", catalog, pool_workers=2)
            try:
                process = ExecutionContext(catalog)
                assert backend.run_plan(prepared.plan, catalog, parallelism=4,
                                        ctx=process) == reference
            finally:
                backend.close()
            assert (serial.tallies()["operator_rows"]
                    == process.tallies()["operator_rows"]), seed


# -- drift detection and feedback-driven re-optimization ---------------------------------
def stale_catalog(num_rows=4000, memory_blocks=40, seed=1, claimed=50):
    """A materialised table whose *declared* statistics are stale by 80x
    — the optimizer plans for 50 rows, execution sees 4000."""
    rng = random.Random(seed)
    catalog = Catalog(SystemParameters(sort_memory_blocks=memory_blocks))
    schema = Schema.of(("a", "int", 8), ("b", "int", 64), ("c", "int", 8))
    rows = [tuple(rng.randrange(50) for _ in range(3)) for _ in range(num_rows)]
    catalog.create_table("t", schema, rows=rows,
                         clustering_order=SortOrder(["a"]),
                         stats=TableStats(claimed, {"a": 25, "b": 25, "c": 25}))
    return catalog


class TestFeedbackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackConfig(drift_threshold=1.0)
        with pytest.raises(ValueError):
            FeedbackConfig(min_rows=-1)

    def test_drift_band(self):
        config = FeedbackConfig(drift_threshold=2.0, min_rows=64)
        assert not config.drifted(10, 1000000 // 100000)  # both under floor
        assert not config.drifted(100, 199)               # inside the band
        assert config.drifted(100, 201)
        assert config.drifted(201, 100)
        assert config.drifted(0, 64)

    def test_scan_tags(self):
        assert scan_table("TableScan:t") == "t"
        assert scan_table("ShardedScan:orders") == "orders"
        assert scan_table("Sort") is None
        # Covering-index scans count index rows, not table rows.
        assert scan_table("CoveringIndexScan:t") is None


class TestDriftReoptimization:
    def test_session_converges_after_drift(self):
        catalog = stale_catalog()
        session = QuerySession(catalog, feedback=FeedbackConfig())
        query = Query.table("t").order_by("b", "a", "c")
        stale = session.prepare(query, parallelism=4)
        # The stale plan believed a 50-row sort was enough.
        assert all(p.op != "MergeExchange" for p in stale.plan.walk())
        stale_ctx = ExecutionContext(catalog)
        reference = stale.execute(ctx=stale_ctx)
        assert session.metrics.drift_events == 1
        assert session.metrics.feedback_refreshes == 1
        assert session.stats()["cache_invalidations"] == 0  # lazy: at next get
        fresh = session.prepare(query, parallelism=4)
        assert session.metrics.optimizations == 2
        assert session.stats()["cache_invalidations"] == 1
        assert any(p.op == "MergeExchange" for p in fresh.plan.walk())
        fresh_ctx = ExecutionContext(catalog)
        assert fresh.execute(ctx=fresh_ctx) == reference
        # The acceptance bar: the converged plan is >= 1.5x cheaper.
        assert stale_ctx.cost_units() >= 1.5 * fresh_ctx.cost_units()
        # Statistics now match reality; a third prepare is a cache hit.
        session.prepare(query, parallelism=4)
        assert session.metrics.optimizations == 2

    def test_feedback_off_by_default(self):
        session = QuerySession(stale_catalog())
        ctx = ExecutionContext(session.catalog)
        session.execute(Query.table("t").order_by("b"), ctx=ctx)
        assert session.metrics.drift_checks == 0
        assert session.metrics.feedback_refreshes == 0
        assert session.catalog.table("t").stats.num_rows == 50  # untouched

    def test_ground_truth_guard_blocks_benign_drift(self):
        """A Limit pulls far fewer rows than estimated — per-run drift —
        but the declared stats agree with the materialised row count, so
        no refresh fires (anti-thrash)."""
        catalog = overlap_catalog()  # accurate measured stats
        session = QuerySession(catalog, feedback=FeedbackConfig())
        version = catalog.stats_version
        # Small batches so the lazy scan stops almost immediately: the
        # scan meter reads ~64 of 2000 estimated rows — way past the
        # drift threshold.
        session.execute(Query.table("u1").limit(5), batch_size=64)
        assert session.metrics.drift_checks == 1
        assert session.metrics.drift_events == 1
        assert session.metrics.feedback_refreshes == 0
        assert catalog.stats_version == version

    def test_server_reoptimizes_under_concurrent_traffic(self):
        catalog = stale_catalog()
        query = Query.table("t").order_by("b", "a", "c")
        reference = QuerySession(catalog).execute(query)
        with QueryServer(catalog, feedback=FeedbackConfig(), parallelism=4,
                         max_inflight=4) as server:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(server.execute, query, timeout=30)
                           for _ in range(12)]
                results = [f.result() for f in futures]
            stats = server.stats()
        assert all(r.rows == reference for r in results)
        assert reconciles(stats)
        assert stats["completed"] == 12
        assert stats["feedback_refreshes"] >= 1
        assert stats["cache_invalidations"] >= 1
        assert stats["optimizations"] >= 2  # stale plan + re-prepare
        # The shared catalog converged: a fresh session plans sharded.
        converged = QuerySession(catalog).prepare(query, parallelism=4)
        assert any(p.op == "MergeExchange" for p in converged.plan.walk())

    def test_server_without_feedback_reports_zero(self):
        catalog = stale_catalog()
        with QueryServer(catalog, parallelism=4) as server:
            server.execute(Query.table("t").order_by("b", "a", "c"))
            stats = server.stats()
        assert stats["drift_checks"] == 0
        assert stats["feedback_refreshes"] == 0

    def test_fuzz_rows_bit_identical_with_feedback(self):
        """Feedback only changes which plan serves the *next* query —
        result rows over the fuzz corpus stay bit-identical."""
        for seed in range(fuzz.BASE_SEED, fuzz.BASE_SEED + 10):
            rng = random.Random(seed)
            catalog = fuzz.random_catalog(rng)
            query = fuzz.random_query(rng, catalog)
            reference = QuerySession(catalog).execute(query)
            session = QuerySession(
                catalog, feedback=FeedbackConfig(min_rows=1))
            for parallelism in (1, 4):
                assert (session.execute(query, parallelism=parallelism)
                        == reference), seed


# -- range-partition disjointness through serving re-assembly ----------------------------
def disjoint_plan_case():
    """Fuzz seed 12 is the corpus witness: its parallel plan gathers
    range partitions through a declared-disjoint MergeExchange."""
    rng = random.Random(12)
    catalog = fuzz.random_catalog(rng)
    query = fuzz.random_query(rng, catalog)
    prepared = QuerySession(catalog).prepare(query, parallelism=4)
    exchanges = [p for p in prepared.plan.walk() if p.op == "MergeExchange"]
    assert any(p.arg("disjoint", False) for p in exchanges)
    return catalog, prepared


class TestDisjointGatherParity:
    def test_reassembled_gather_keeps_disjoint_concat(self):
        """The re-assembled exchange's children are StreamSources: the
        forwarded plan arg is the only witness of disjointness.
        Without it the gather heap-merges and pays extra comparisons."""
        catalog, prepared = disjoint_plan_case()
        occurrences, tasks = shard_subplans(prepared.plan)
        task_rows = [task.to_operator(catalog).run(ExecutionContext(catalog))
                     for task in tasks]

        def reassemble():
            """A fresh graft over pre-filled streams (StreamSource is
            one-shot, so every execution needs its own set)."""
            streams = []
            for i, rows in enumerate(task_rows):
                stream = ShardStream(i)
                stream.put(rows)
                stream.finish(({}, False))
                streams.append(stream)
            root = assemble_streams(prepared.plan, occurrences, streams,
                                    catalog)
            return root, [op for op in operators(root)
                          if isinstance(op, MergeExchange)]

        def operators(op):
            yield op
            for child in op.children:
                yield from operators(child)

        root, gathers = reassemble()
        assert gathers and all(g.partition_disjoint for g in gathers)
        declared = ExecutionContext(catalog)
        rows = root.run(declared)
        root, gathers = reassemble()
        for gather in gathers:
            gather.partition_disjoint = False
        undeclared = ExecutionContext(catalog)
        assert root.run(undeclared) == rows
        assert declared.comparisons.value < undeclared.comparisons.value

    def test_process_backend_comparison_parity(self):
        catalog, prepared = disjoint_plan_case()
        local = ExecutionContext(catalog)
        reference = prepared.execute(ctx=local)
        backend = make_backend("process", catalog, pool_workers=2)
        try:
            ctx = ExecutionContext(catalog)
            rows = backend.run_plan(prepared.plan, catalog, parallelism=4,
                                    ctx=ctx)
        finally:
            backend.close()
        assert rows == reference
        assert ctx.comparisons.value == local.comparisons.value
        assert (ctx.tallies()["operator_rows"]
                == local.tallies()["operator_rows"])


# -- measured distincts in greedy many-to-many ordering ----------------------------------
def m2m_star_catalog(materialized=True):
    """Star query whose declared statistics are silent about ``c_y`` —
    the duplicate-heavy fan-out column (5 values over 600 rows).  Only
    the measured per-shard sketches can reveal it."""
    rng = random.Random(11)
    catalog = Catalog(SystemParameters())
    sa = Schema.of(("a_id", "int", 8), ("a_x", "int", 8), ("a_y", "int", 8))
    sb = Schema.of(("b_x", "int", 8), ("b_v", "int", 8))
    sc = Schema.of(("c_y", "int", 8), ("c_v", "int", 8))
    a_rows = [(i, rng.randrange(300), rng.randrange(5)) for i in range(50)]
    b_rows = [(i % 300, rng.randrange(9)) for i in range(600)]
    c_rows = [(rng.randrange(5), rng.randrange(9)) for _ in range(600)]
    catalog.create_table("a", sa, rows=a_rows if materialized else None,
                         stats=TableStats(50, {"a_id": 50, "a_x": 50, "a_y": 5}))
    catalog.create_table("b", sb, rows=b_rows if materialized else None,
                         stats=TableStats(600, {"b_x": 300, "b_v": 9}))
    catalog.create_table("c", sc, rows=c_rows if materialized else None,
                         stats=TableStats(600, {"c_v": 9}))
    return catalog


class TestGreedyM2MMeasuredDistincts:
    def test_measured_sketches_change_and_improve_the_order(self):
        root = (Query.table("a")
                .join("b", on=[("a_x", "b_x")])
                .join("c", on=[("a_y", "c_y")])).expr
        enumerator = GreedyManyToManyEnumerator()
        catalog = m2m_star_catalog(materialized=True)
        # Stats-only tables have no shards to sketch: c_y defaults to
        # key-like and the blowup join is ordered first.
        blind_tree = enumerator.reorder(
            m2m_star_catalog(materialized=False), root)
        measured_tree = enumerator.reorder(catalog, root)
        assert blind_tree != measured_tree
        rows = {}
        join_rows = {}
        for label, tree in (("measured", measured_tree), ("blind", blind_tree)):
            ctx = ExecutionContext(catalog)
            rows[label] = sorted(QuerySession(catalog).execute(
                Query.of(tree), ctx=ctx))
            join_rows[label] = sum(
                actual for tag, (_, actual) in ctx.operator_rows.items()
                if "Join" in tag)
        assert rows["measured"] == rows["blind"]
        # The deferred many-to-many join moves strictly fewer rows.
        assert join_rows["measured"] < 0.75 * join_rows["blind"]
