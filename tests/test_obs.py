"""Observability: span trees end to end (serial / process, sharded and
whole-plan tasks, pool-rebuild mid-query), EXPLAIN ANALYZE
estimated-vs-actual annotations, the histogram-backed latency tracker,
Prometheus/JSON exposition, the slow-query log, and the fuzz-corpus pin
that tracing changes no rows and no tallies."""

import json
import random
import threading
from concurrent.futures import BrokenExecutor

import pytest

from repro.engine.context import ExecutionContext
from repro.logical import Query
from repro.obs import ObservabilityConfig
from repro.obs.export import SlowQueryLog, json_snapshot, prometheus_text
from repro.obs.trace import (
    Trace,
    Tracer,
    _NULL_SPAN,
    active_span,
    child_span,
)
from repro.service import QueryServer, QuerySession, TracedResult
from repro.service.backends import ProcessPoolBackend
from repro.service.metrics import LatencyTracker, ServerMetrics

from tests.test_server import (
    _worker_suicide,
    serving_catalog,
    serving_queries,
)


class FakeClock:
    """Deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step: float = 0.5) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


OPTIMIZER_STAGES = ("pre_check", "join_enumeration", "physical_selection",
                    "parameterization")


def assert_full_query_tree(trace, *, shards: int) -> None:
    """The acceptance shape: one tree covering admission, queue wait,
    all four optimizer stages, per-shard worker execution and merge."""
    root = trace.root
    assert root is not None and root.name == "query"
    assert root.end is not None
    for name in ("admission", "queue_wait", "plan", "bind", "execute"):
        span = trace.find(name)
        assert span is not None and span.end is not None, name
    plan_span = trace.find("plan")
    for stage in OPTIMIZER_STAGES:
        span = trace.find(stage)
        assert span is not None, stage
        assert span.parent_id == plan_span.span_id
        assert span.end is not None
    execute = trace.find("execute")
    dispatches = trace.find_all("shard_dispatch")
    assert len(dispatches) == shards
    assert {d.tags["shard"] for d in dispatches} == set(range(shards))
    assert all(d.parent_id == execute.span_id for d in dispatches)
    workers = trace.find_all("worker_execute")
    assert len(workers) == shards
    # Worker spans carry the parent trace id: they are spans *of this
    # trace*, grafted under their shard's dispatch span.
    assert all(w.trace_id == trace.trace_id for w in workers)
    dispatch_ids = {d.span_id for d in dispatches}
    assert {w.parent_id for w in workers} == dispatch_ids
    merge = trace.find("merge")
    assert merge is not None and merge.parent_id == execute.span_id


# -- the tracing primitives ---------------------------------------------------------------
class TestTracePrimitives:
    def test_span_tree_with_fake_clock(self):
        clock = FakeClock(step=1.0)
        trace = Trace("t-1", clock=clock)
        root = trace.begin("query")
        with trace.span("child", parent=root, shard=3) as child:
            assert active_span() is child
        trace.finish(root)
        assert child.parent_id == root.span_id
        assert child.duration == pytest.approx(1.0)
        assert child.tags == {"shard": 3}
        assert root.end is not None and root.end > child.end
        assert trace.root is root

    def test_span_cm_tags_error_class(self):
        trace = Trace("t-err", clock=FakeClock())
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("nope")
        span = trace.find("boom")
        assert span.tags["error"] == "ValueError"
        assert span.end is not None

    def test_child_span_is_noop_outside_any_trace(self):
        assert active_span() is None
        cm = child_span("anything", rows=1)
        assert cm is _NULL_SPAN
        with cm as span:
            assert span.tag(more=2) is span  # chainable no-op
        assert active_span() is None

    def test_child_span_nests_under_ambient(self):
        trace = Trace("t-nest", clock=FakeClock())
        with trace.span("outer") as outer:
            with child_span("inner") as inner:
                assert active_span() is inner
            assert active_span() is outer
        assert inner.parent_id == outer.span_id

    def test_activate_hands_ambient_across_threads(self):
        trace = Trace("t-thread", clock=FakeClock())
        root = trace.begin("query")
        seen = []

        def body():
            with trace.activate(root):
                with child_span("work") as span:
                    seen.append(span)

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert seen[0].parent_id == root.span_id

    def test_attach_rebases_worker_offsets(self):
        parent = Trace("t-p", clock=FakeClock(step=0.0))
        dispatch = parent.begin("shard_dispatch")
        worker = Trace("t-p", clock=FakeClock(step=1.0),
                       id_prefix=f"{dispatch.span_id}.")
        w = worker.begin("worker_execute", parent_id=dispatch.span_id)
        worker.finish(w)
        parent.attach(worker.to_records(), base_offset=10.0)
        grafted = parent.find("worker_execute")
        assert grafted.span_id.startswith(f"{dispatch.span_id}.")
        assert grafted.start == pytest.approx(10.0 + w.start)
        assert grafted.end == pytest.approx(10.0 + w.end)
        assert grafted.trace_id == parent.trace_id

    def test_disabled_tracer_starts_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.start("query") is None
        assert tracer.traces_started == 0
        enabled = Tracer(clock=FakeClock())
        t1, t2 = enabled.start(), enabled.start()
        assert enabled.traces_started == 2
        assert t1.trace_id != t2.trace_id

    def test_render_contains_every_span(self):
        trace = Trace("t-render", clock=FakeClock(step=0.25))
        root = trace.begin("query")
        with trace.span("plan", parent=root):
            pass
        trace.finish(root)
        text = trace.render()
        assert "trace t-render" in text
        assert "- query" in text and "- plan" in text


# -- the histogram latency tracker --------------------------------------------------------
class TestLatencyTracker:
    def test_quantiles_track_sorted_sample_within_bucket_error(self):
        """Parity: histogram quantiles stay within one bucket's relative
        width (2**0.25 ≈ 19%) of the exact sorted-sample quantile."""
        rng = random.Random(42)
        tracker = LatencyTracker()
        samples = [rng.lognormvariate(-4.0, 1.5) for _ in range(5000)]
        for s in samples:
            tracker.record(s)
        ordered = sorted(samples)
        for q in (0.10, 0.50, 0.90, 0.95, 0.99):
            exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
            approx = tracker.quantile(q)
            assert approx == pytest.approx(exact, rel=0.20), q

    def test_small_n_clamped_to_observed_range(self):
        tracker = LatencyTracker()
        tracker.record(0.030)
        assert tracker.quantile(0.5) == pytest.approx(0.030)
        assert tracker.quantile(0.99) == pytest.approx(0.030)
        tracker.record(0.050)
        assert 0.030 <= tracker.quantile(0.5) <= 0.050
        assert tracker.quantile(0.0) == pytest.approx(0.030)

    def test_buckets_cumulative_ending_inf(self):
        tracker = LatencyTracker()
        for s in (0.001, 0.002, 0.004, 120.0):  # last beyond top bound
            tracker.record(s)
        buckets = tracker.buckets()
        assert buckets[-1][0] == float("inf")
        assert buckets[-1][1] == 4
        counts = [c for _, c in buckets]
        assert counts == sorted(counts)  # cumulative, monotone
        assert tracker.count == 4
        assert tracker.mean == pytest.approx(sum((0.001, 0.002, 0.004,
                                                  120.0)) / 4)

    def test_empty_tracker(self):
        tracker = LatencyTracker()
        assert tracker.quantile(0.5) == 0.0
        assert tracker.mean == 0.0
        assert tracker.buckets()[-1] == (float("inf"), 0)


# -- per-tenant latency percentiles -------------------------------------------------------
class TestTenantLatency:
    def test_tenant_percentiles_partition_by_tenant(self):
        metrics = ServerMetrics()
        for tenant, seconds in (("fast", 0.01), ("fast", 0.012),
                                ("slow", 0.8), ("slow", 1.0)):
            _, outcome = metrics.try_admit(8, tenant=tenant)
            metrics.start_execution(outcome)
            metrics.finish_execution(seconds, "completed", outcome)
        tenants = metrics.tenants_dict()
        assert tenants["fast"]["latency_p95_ms"] < 20
        assert tenants["slow"]["latency_p50_ms"] > 500
        # The global histogram covers both.
        stats = metrics.as_dict(slots=1)
        assert stats["latency_count"] == 4
        assert stats["latency_histogram"][-1][1] == 4


# -- exposition ---------------------------------------------------------------------------
class TestExposition:
    def test_prometheus_text_shape(self, catalog=None):
        srv_catalog = serving_catalog(num_rows=400)
        with QueryServer(srv_catalog, obs=True) as server:
            server.execute(serving_queries()[0])
            text = server.metrics_text()
        assert "# TYPE repro_completed gauge" in text
        assert "repro_completed 1" in text
        assert 'repro_backend_info{value="serial"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_count 1" in text
        assert 'repro_tenant_completed{tenant="default"} 1' in text
        assert "repro_traces_started 1" in text

    def test_json_snapshot_stable_and_versioned(self):
        doc1 = json_snapshot({"b": 2, "a": 1, "nan": float("nan"),
                              "inf": float("inf")})
        doc2 = json_snapshot({"a": 1, "inf": float("inf"),
                              "nan": float("nan"), "b": 2})
        assert doc1 == doc2  # sorted keys: insertion order is invisible
        parsed = json.loads(doc1)
        assert parsed["schema_version"] == 1
        assert parsed["stats"]["nan"] == "NaN"
        assert parsed["stats"]["inf"] == "+Inf"

    def test_slow_query_log_threshold_and_bound(self):
        log = SlowQueryLog(capacity=2, threshold_seconds=0.1)
        assert not log.observe(fingerprint="f0", tenant="t",
                               latency_seconds=0.05, backend="serial")
        assert len(log) == 0
        for i in range(3):
            assert log.observe(fingerprint=f"f{i}", tenant="t",
                               latency_seconds=0.2 + i, backend="serial")
        assert log.recorded == 3
        entries = log.entries()
        assert len(entries) == 2  # bounded: oldest aged out
        assert [e["fingerprint"] for e in entries] == ["f1", "f2"]

    def test_server_slow_log_captures_trace(self):
        srv_catalog = serving_catalog(num_rows=400)
        obs = ObservabilityConfig(slow_query_seconds=0.0)
        with QueryServer(srv_catalog, obs=obs) as server:
            result = server.execute(serving_queries()[0])
            entries = server.slow_queries()
        assert len(entries) == 1
        assert entries[0]["trace_id"] == result.trace.trace_id
        assert entries[0]["backend"] == "serial"


# -- EXPLAIN ANALYZE ----------------------------------------------------------------------
class TestExplainAnalyze:
    def test_every_node_reports_est_actual_and_time(self):
        catalog = serving_catalog(num_rows=800)
        session = QuerySession(catalog)
        ea = session.explain_analyze(serving_queries()[0])
        assert ea.row_count == 800 and len(ea.rows) == 800
        reports = ea.node_reports()
        assert reports  # one entry per plan node, pre-order
        for report in reports:
            assert report["tag"] is not None, report["op"]
            assert report["actual_rows"] is not None
            assert report["estimated_rows"] is not None
            assert report["seconds"] is not None
            assert report["batches"] is not None
        text = ea.render()
        assert "EXPLAIN ANALYZE" in text
        assert "rows est=" in text and "act=" in text
        assert "time=" in text and "batches=" in text

    def test_shared_meter_marked_with_multiplicity(self):
        # Default size: the ORDER BY b sort spills at parallelism 1 and
        # fits per shard, so the parallelism-4 plan carries the
        # MergeExchange whose shard pipelines share meters.
        catalog = serving_catalog()
        session = QuerySession(catalog)
        ea = session.explain_analyze(serving_queries()[0], parallelism=4)
        shared = [r for r in ea.node_reports() if r["shared_nodes"] > 1]
        assert shared, "parallel plan should share shard meters"
        assert "share this meter" in ea.render()

    def test_traced_result_explain_analyze(self):
        catalog = serving_catalog(num_rows=400)
        with QueryServer(catalog, obs=True) as server:
            result = server.execute(serving_queries()[0])
        ea = result.explain_analyze()
        assert ea.row_count == len(result.rows)
        assert any(r["seconds"] is not None for r in ea.node_reports())

    def test_hash_aggregate_time_is_attributed_to_the_aggregate(self):
        """``tran_volume``'s shape (filter, then a hash GROUP BY down to
        a handful of groups): the aggregate consumes its whole input
        inside its own timed stream, so its inclusive time contains its
        child's and is most of the wall — not the microseconds it takes
        to hand over the finished groups."""
        from repro.expr import col, param
        from repro.expr.aggregates import agg_sum, count_star
        catalog = serving_catalog(num_rows=20_000, memory_blocks=10_000)
        query = (Query.table("t").where(col("c").ge(param("lo")))
                 .group_by(["b"], count_star("n"), agg_sum(col("c"), "s")))
        ea = QuerySession(catalog).explain_analyze(query, lo=10)
        reports = ea.node_reports()
        assert [r["op"] for r in reports] == ["HashAggregate", "Filter",
                                              "TableScan"]
        aggregate, child = reports[0], reports[1]
        assert aggregate["seconds"] > child["seconds"] > 0
        assert aggregate["seconds"] > 0.5 * ea.wall_seconds
        assert aggregate["seconds"] - child["seconds"] > 0.1 * ea.wall_seconds

    def test_meter_timing_off_keeps_times_empty(self):
        catalog = serving_catalog(num_rows=400)
        ctx = ExecutionContext(catalog)
        QuerySession(catalog).execute(serving_queries()[0], ctx=ctx)
        assert ctx.operator_times == {}
        assert ctx.tallies()["operator_times"] == {}


# -- end-to-end span trees ----------------------------------------------------------------
class TestServerTracing:
    def test_process_backend_full_span_tree(self):
        """Acceptance: a traced query on the process backend yields one
        span tree from admission through per-shard worker execution to
        the merge, worker spans carrying the parent trace id."""
        catalog = serving_catalog()
        with QueryServer(catalog, backend="process", parallelism=4,
                         pool_workers=2, obs=True) as server:
            result = server.execute(serving_queries()[0])
        assert isinstance(result, TracedResult)
        assert_full_query_tree(result.trace, shards=4)
        # Cache-status agreement between the span and the result.
        assert result.trace.find("plan").tags["cache_hit"] \
            == result.from_cache

    def test_whole_plan_stream_reattaches_worker_without_merge(self):
        """A plan with no exchange ships as one streamed task: one
        dispatch with its worker subtree, and no merge span since
        nothing is merged."""
        catalog = serving_catalog()
        with QueryServer(catalog, backend="process", parallelism=1,
                         pool_workers=2, obs=True) as server:
            result = server.execute(serving_queries()[0])
            assert server.stats()["streamed_chunks"] >= 1
        trace = result.trace
        (dispatch,) = trace.find_all("shard_dispatch")
        assert dispatch.parent_id == trace.find("execute").span_id
        (worker,) = trace.find_all("worker_execute")
        assert worker.parent_id == dispatch.span_id
        assert worker.trace_id == trace.trace_id
        assert trace.find("run").tags["rows"] == len(result.rows)
        assert trace.find("merge") is None

    @pytest.mark.parametrize("backend", ["serial"])
    def test_in_process_backends_trace(self, backend):
        catalog = serving_catalog(num_rows=600)
        with QueryServer(catalog, backend=backend, parallelism=2,
                         obs=True) as server:
            result = server.execute(serving_queries()[0])
        trace = result.trace
        for name in ("admission", "queue_wait", "plan", "bind", "execute",
                     "local_execute"):
            assert trace.find(name) is not None, name
        local = trace.find("local_execute")
        assert local.parent_id == trace.find("execute").span_id
        assert local.tags["rows"] == len(result.rows)

    def test_trace_survives_pool_rebuild_mid_query(self):
        """BrokenExecutor retry: the retried attempt's spans land in the
        same trace (attempt tag distinguishes them) and the result is
        still correct."""
        catalog = serving_catalog(num_rows=800, seed=5)
        query = serving_queries()[0]
        reference = QuerySession(catalog).execute(query)
        backend = ProcessPoolBackend(catalog, workers=2)
        with QueryServer(catalog, backend=backend, parallelism=2,
                         obs=True) as server:
            handle = backend._ensure_pool()
            doomed = handle.pool.submit(_worker_suicide, 0)
            with pytest.raises(BrokenExecutor):
                doomed.result(timeout=30)
            result = server.execute(query)
        assert result.rows == reference
        trace = result.trace
        dispatches = trace.find_all("shard_dispatch")
        attempts = {d.tags["attempt"] for d in dispatches}
        assert attempts == {0, 1}, "first attempt + rebuilt retry"
        # Every retried dispatch finished; failed ones carry the error.
        assert all(d.end is not None for d in dispatches)
        workers = [w for w in trace.find_all("worker_execute")]
        assert workers and all(w.trace_id == trace.trace_id
                               for w in workers)
        assert trace.root.tags.get("retries") is None \
            or trace.root.tags["retries"] >= 1

    def test_per_call_trace_override(self):
        catalog = serving_catalog(num_rows=400)
        obs = ObservabilityConfig(trace_queries=False)
        with QueryServer(catalog, obs=obs) as server:
            plain = server.execute(serving_queries()[0])
            traced = server.execute(serving_queries()[0], trace=True)
            off = server.execute(serving_queries()[0], trace=False)
        assert not isinstance(plain, TracedResult)
        assert not isinstance(off, TracedResult)
        assert isinstance(traced, TracedResult)

    def test_untraced_server_returns_plain_results(self):
        catalog = serving_catalog(num_rows=400)
        with QueryServer(catalog) as server:
            result = server.execute(serving_queries()[0])
            assert not isinstance(result, TracedResult)
            # trace=True without obs= stays plain: no tracer exists.
            result = server.execute(serving_queries()[0], trace=True)
            assert not isinstance(result, TracedResult)
            stats = server.stats()
        assert "traces_started" not in stats

    def test_injected_fake_clock_tracer(self):
        catalog = serving_catalog(num_rows=400)
        obs = ObservabilityConfig(tracer=Tracer(clock=FakeClock(step=1.0)))
        with QueryServer(catalog, obs=obs) as server:
            result = server.execute(serving_queries()[0])
        root = result.trace.root
        assert root.duration is not None and root.duration >= 1.0
        assert root.duration == int(root.duration)  # fake-clock steps

    def test_ambient_never_leaks_across_queries(self):
        catalog = serving_catalog(num_rows=400)
        with QueryServer(catalog, obs=True) as server:
            server.execute(serving_queries()[0])
        assert active_span() is None


# -- determinism: tracing changes nothing -------------------------------------------------
class TestTracingDeterminism:
    def test_fuzz_corpus_rows_and_tallies_identical(self):
        """Pin: tracing on vs off is bit-identical in rows AND in every
        deterministic tally on the fuzz corpus (wall times excluded by
        construction — they are only collected when tracing is on)."""
        from tests.test_plan_fuzz import random_catalog, random_query

        def strip_times(tallies: dict) -> dict:
            return {k: v for k, v in tallies.items()
                    if k != "operator_times"}

        for seed in range(8):
            rng = random.Random(seed)
            fuzz_catalog = random_catalog(rng)
            query = random_query(rng, fuzz_catalog)
            reference = QuerySession(fuzz_catalog).execute(query)
            plan = QuerySession(fuzz_catalog).prepare(
                query, parallelism=4).plan
            backend = ProcessPoolBackend(fuzz_catalog, workers=2)
            try:
                ctx_off = ExecutionContext(fuzz_catalog)
                rows_off = backend.run_plan(plan, fuzz_catalog,
                                            parallelism=4, ctx=ctx_off)
                tracer = Tracer()
                trace = tracer.start("fuzz")
                root = trace.begin("query")
                ctx_on = ExecutionContext(fuzz_catalog, meter_timing=True)
                with trace.activate(root):
                    rows_on = backend.run_plan(plan, fuzz_catalog,
                                               parallelism=4, ctx=ctx_on)
                trace.finish(root)
            finally:
                backend.close()
            assert rows_off == reference, f"fuzz seed {seed}"
            assert rows_on == reference, f"fuzz seed {seed}"
            # Same backend, same plan: every deterministic tally is
            # bit-identical with tracing on vs off, and the untraced run
            # collected no wall times at all.
            assert strip_times(ctx_on.tallies()) \
                == strip_times(ctx_off.tallies()), f"fuzz seed {seed}"
            assert ctx_off.tallies()["operator_times"] == {}
            assert trace.find_all("shard_dispatch"), \
                "traced run produced no dispatch spans"

    def test_serial_tallies_identical_with_tracing(self):
        catalog = serving_catalog(num_rows=600)
        query = serving_queries()[0]
        ref_ctx = ExecutionContext(catalog)
        QuerySession(catalog).execute(query, ctx=ref_ctx)
        with QueryServer(catalog, obs=True) as server:
            traced = server.execute(query)
        assert traced.operator_rows == ref_ctx.tallies()["operator_rows"]
