"""The counter surfaces, pinned key by key and value by value.

Every counter is declared once and its reported copies are derived from
that declaration: the engine's tallies from ``IOAccountant`` and
``SortMetrics``, the server's admission totals from its tenants'
counters.  These tests hold what a reader of those copies sees: the exact
key sets of ``QueryServer.stats()``, ``QuerySession.stats()``,
``ExecutionContext.tallies()`` and ``ProcessPoolBackend.describe()``,
exact counter values after one fixed serial script that reaches every
admission outcome, and server totals equal to the sums over tenants.
"""

import threading
import time

import pytest

from repro.engine.context import ExecutionContext
from repro.logical import Query
from repro.service import (
    CircuitOpen,
    ExecutionBackend,
    QueryRejected,
    QueryServer,
    QuerySession,
    QueryTimeout,
)

from tests.test_server import reconciles, serving_catalog, wait_quiescent

#: The eight admission-outcome counters, server-wide and per tenant.
OUTCOMES = {
    "submitted", "admitted", "rejected_queue_full", "rejected_quota",
    "rejected_circuit", "completed", "failed", "timeouts",
}

SESSION_KEYS = {
    "prepares", "optimizations", "reprepares", "executions",
    "optimize_seconds", "shard_merge_plans", "post_union_sort_plans",
    "sharded_join_plans", "sharded_agg_plans", "sharded_distinct_plans",
    "enumerator_seconds", "join_order_candidates", "goals_examined",
    "goals_pruned", "memo_hits", "failure_memo_hits", "drift_checks",
    "drift_events", "feedback_refreshes",
    "cache_size", "cache_capacity", "cache_hits", "cache_misses",
    "cache_evictions", "cache_invalidations", "cache_hit_rate",
    "kernels_compiled", "kernel_cache_hits", "kernel_fallbacks",
}

SERVER_KEYS = (SESSION_KEYS | OUTCOMES | {
    "abandoned", "queue_depth", "in_flight", "max_queue_depth",
    "max_in_flight", "latency_p50_ms", "latency_p95_ms", "latency_mean_ms",
    "latency_count", "latency_sum_seconds", "latency_histogram",
    "busy_seconds", "worker_utilization",
    "circuit_state", "circuit_consecutive_failures", "circuit_opens",
    "circuit_half_opens", "circuit_closes",
    "backend", "max_inflight_limit", "queue_limit", "parallelism",
    "tenants", "sessions",
})

PROCESS_DESCRIBE_KEYS = {
    "backend", "pool_workers", "pool_rebuilds", "local_queries",
    "streamed_queries", "subplan_cache_hits",
    "subplan_cache_misses", "pool_stale",
}

OBS_KEYS = {"traces_started", "slow_queries_recorded",
            "slow_queries_retained"}

TENANT_KEYS = OUTCOMES | {"occupancy", "latency_p50_ms", "latency_p95_ms"}

TALLY_KEYS = [
    "blocks_read", "blocks_written", "scan_blocks", "run_blocks_written",
    "run_blocks_read", "partition_blocks", "comparisons", "runs_created",
    "segments_sorted", "rows_spilled", "merge_passes", "in_memory_sorts",
    "operator_rows", "operator_times",
]


@pytest.fixture(scope="module")
def catalog():
    return serving_catalog(num_rows=500, seed=3)


QUERY = Query.table("t").order_by("b", "a", "c")


class TestKeySets:
    def test_session_stats_keys(self, catalog):
        session = QuerySession(catalog)
        session.execute(QUERY)
        assert set(session.stats()) == SESSION_KEYS | {"join_enumerator"}

    @pytest.mark.parametrize("obs", [None, True], ids=["plain", "obs"])
    def test_serial_server_stats_keys(self, catalog, obs):
        with QueryServer(catalog, backend="serial", obs=obs) as server:
            server.execute(QUERY)
            stats = server.stats()
        assert set(stats) == SERVER_KEYS | (OBS_KEYS if obs else set())
        assert set(stats["tenants"]["default"]) == TENANT_KEYS

    def test_process_server_stats_and_describe_keys(self, catalog):
        with QueryServer(catalog, backend="process", pool_workers=1,
                         parallelism=4) as server:
            server.execute(QUERY)
            stats = server.stats()
            describe = server.backend.describe()
        assert set(stats) == SERVER_KEYS | PROCESS_DESCRIBE_KEYS
        assert set(describe) == PROCESS_DESCRIBE_KEYS
        assert describe["local_queries"] + describe["streamed_queries"] == 1

    def test_tallies_keys_fold_and_reset(self):
        ctx = ExecutionContext()
        ctx.io.read(3)
        ctx.io.read(2, category="run")
        ctx.io.read(1, category="partition")
        ctx.io.write(5)
        ctx.io.write(7, category="partition")
        ctx.comparisons.add(11)
        metrics = ctx.sort_metrics
        metrics.runs_created, metrics.segments_sorted = 2, 13
        metrics.rows_spilled, metrics.merge_passes = 17, 1
        metrics.in_memory_sorts = 4
        ctx.meter_start("Sort", 10)[1] += 9
        ctx.time_cell("Sort")[:] = [0.5, 2]
        expected = {
            "blocks_read": 6, "blocks_written": 12, "scan_blocks": 3,
            "run_blocks_written": 5, "run_blocks_read": 2,
            "partition_blocks": 8, "comparisons": 11, "runs_created": 2,
            "segments_sorted": 13, "rows_spilled": 17, "merge_passes": 1,
            "in_memory_sorts": 4, "operator_rows": {"Sort": (10, 9)},
            "operator_times": {"Sort": (0.5, 2)},
        }
        assert list(ctx.tallies()) == TALLY_KEYS
        assert ctx.tallies() == expected

        parent = ExecutionContext()
        parent.absorb_tallies(ctx.tallies())
        parent.absorb_tallies(ctx.tallies())
        assert parent.tallies() == {
            key: ({tag: (2 * a, 2 * b) for tag, (a, b) in value.items()}
                  if isinstance(value, dict) else 2 * value)
            for key, value in expected.items()}
        assert parent.cost_units() == 2 * ctx.cost_units()

        parent.reset()
        assert parent.tallies() == ExecutionContext().tallies()
        assert all(parent.tallies()[key] == 0 for key in TALLY_KEYS[:-2])


class _GateBackend(ExecutionBackend):
    """Each execution waits on a gate, then fails or serves one row."""

    name = "gate"

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.started = threading.Semaphore(0)
        self.fail = False

    def run_plan(self, plan, catalog, parallelism=1, ctx=None):
        self.started.release()
        assert self.gate.wait(timeout=10)
        if self.fail:
            raise RuntimeError("injected backend failure")
        return [("ok",)]


def _wait_for(server, key, value, timeout=10.0):
    deadline = time.monotonic() + timeout
    while server.stats()[key] != value:
        assert time.monotonic() < deadline, f"{key} never reached {value}"
        time.sleep(0.005)


class TestSerialScript:
    def test_every_outcome_counted_once(self, catalog):
        """One slot, a wait queue of two, bob weighted twice alice, a
        breaker that opens on the first backend failure.  The script
        reaches each outcome in a fixed order; each step's count is
        determined by the slot and queue it finds."""
        backend = _GateBackend()
        with QueryServer(catalog, backend=backend, max_inflight=1,
                         queue_limit=2, tenant_weights={"bob": 2.0},
                         circuit_threshold=1,
                         circuit_reset_timeout=60.0) as server:
            def execute(tenant, **kwargs):
                return server.execute(QUERY, tenant=tenant, **kwargs)

            # 1. Admitted and completed, inline on the free slot.
            assert execute("alice").rows == [("ok",)]

            # 2. alice holds the one slot through the one dispatch thread.
            backend.gate.clear()
            waiters = [threading.Thread(target=execute, args=(tenant,),
                                        kwargs={"timeout": 30.0})
                       for tenant in ("alice", "bob", "bob")]
            waiters[0].start()
            assert backend.started.acquire(timeout=10)
            # 3. Queued-deadline timeout: bob's query expires in the
            #    queue and is cancelled before any slot takes it.
            with pytest.raises(QueryTimeout):
                execute("bob", timeout=0.05)
            # 4. bob queues one query ...
            waiters[1].start()
            _wait_for(server, "queue_depth", 1)
            # 5. ... so alice, at her weighted share, is over quota ...
            with pytest.raises(QueryRejected) as quota:
                execute("alice")
            assert quota.value.reason == "quota"
            # 6. ... while bob, under his, queues a second ...
            waiters[2].start()
            _wait_for(server, "queue_depth", 2)
            # 7. ... and the full queue turns carol away.
            with pytest.raises(QueryRejected) as full:
                execute("carol")
            assert full.value.reason == "queue_full"
            backend.gate.set()
            for waiter in waiters:
                waiter.join(timeout=10)
                assert not waiter.is_alive()
            wait_quiescent(server)

            # 8. Client timeout: carol's query is running when her
            #    deadline passes; its late result is abandoned.
            backend.gate.clear()
            with pytest.raises(QueryTimeout):
                execute("carol", timeout=0.3)
            backend.gate.set()
            wait_quiescent(server)

            # 9. Backend failure: the breaker opens ...
            backend.fail = True
            with pytest.raises(RuntimeError, match="injected"):
                execute("alice")
            # 10. ... and turns bob away.
            with pytest.raises(CircuitOpen):
                execute("bob")
            stats = server.stats()

        assert {key: stats[key] for key in (
            "submitted", "admitted", "rejected_queue_full", "rejected_quota",
            "rejected_circuit", "completed", "failed", "timeouts",
            "abandoned", "queue_depth", "in_flight", "max_queue_depth",
            "max_in_flight", "latency_count", "circuit_state",
            "circuit_opens", "prepares", "optimizations", "executions",
            "cache_hits", "cache_misses", "cache_size")} == {
            "submitted": 10, "admitted": 7, "rejected_queue_full": 1,
            "rejected_quota": 1, "rejected_circuit": 1, "completed": 4,
            "failed": 1, "timeouts": 2, "abandoned": 1, "queue_depth": 0,
            "in_flight": 0, "max_queue_depth": 2, "max_in_flight": 1,
            "latency_count": 4, "circuit_state": "open", "circuit_opens": 1,
            "prepares": 6, "optimizations": 1, "executions": 5,
            "cache_hits": 5, "cache_misses": 1, "cache_size": 1,
        }
        zero = dict.fromkeys(OUTCOMES | {"occupancy"}, 0)
        tenants = {name: {key: value for key, value in counters.items()
                          if not key.startswith("latency")}
                   for name, counters in stats["tenants"].items()}
        assert tenants == {
            "alice": {**zero, "submitted": 4, "admitted": 3,
                      "rejected_quota": 1, "completed": 2, "failed": 1},
            "bob": {**zero, "submitted": 4, "admitted": 3, "timeouts": 1,
                    "completed": 2, "rejected_circuit": 1},
            "carol": {**zero, "submitted": 2, "admitted": 1,
                      "rejected_queue_full": 1, "timeouts": 1},
        }
        for key in OUTCOMES:
            assert stats[key] == sum(t[key] for t in tenants.values()), key
        assert reconciles(stats)
