"""Query-server quickstart: concurrent clients, admission control, and
the process-pool backend.

The :class:`QuerySession` quickstart shows one caller preparing and
executing queries; this one shows the tier above it — a
:class:`QueryServer` absorbing traffic from many concurrent clients:

* asyncio clients ``await server.submit(...)``; plain threads call
  ``server.execute(...)`` — both pass one admission control and share
  ``max_inflight`` execution slots.  A thread's call with no deadline
  runs on that thread when a slot is free; submissions, calls with a
  deadline and calls that find every slot busy wait on the dispatch
  pool;
* every slot's session shares **one** cross-session plan cache, so a
  query optimized for any client is served from cache to all of them;
* the **process-pool backend** ships the per-shard subplans the
  optimizer placed under a MergeExchange to worker processes — the one
  execution mode where the sharded enforcers use multiple cores — and
  merges the rows each worker returns in the serving process;
* when the server sheds load it answers with a ``retry_after`` hint,
  and :class:`RetryingClient` honours it — jittered backoff instead of
  a resubmit storm.

Run:  python examples/server_quickstart.py
"""

import asyncio
import random
import threading

from repro.core.sort_order import SortOrder
from repro.expr import col, param
from repro.expr.aggregates import agg_sum, count_star
from repro.logical import Query
from repro.service import QueryServer, RetryingClient, RetryPolicy
from repro.storage import Catalog, Schema, SystemParameters


def build_catalog() -> Catalog:
    rng = random.Random(2026)
    catalog = Catalog(SystemParameters(sort_memory_blocks=60))
    trades = Schema.of(
        ("symbol", "int", 8), ("ts", "int", 8),
        ("qty", "int", 8), ("note", "str", 64))
    rows = [(rng.randrange(64), rng.randrange(10_000),
             rng.randrange(1, 500), f"n{rng.randrange(1000)}")
            for _ in range(6_000)]
    catalog.create_table("trades", trades, rows=rows,
                         clustering_order=SortOrder(["symbol"]))
    return catalog


def main() -> None:
    catalog = build_catalog()

    # ORDER BY off the clustering order: at parallelism 4 the optimizer
    # places per-shard sorts under a MergeExchange, and the process
    # backend runs each shard in its own worker process.
    report = Query.table("trades").order_by("ts", "symbol", "qty", "note")
    by_symbol = (Query.table("trades")
                 .where(col("qty").ge(param("min_qty")))
                 .group_by(["symbol"], count_star("trades"),
                           agg_sum(col("qty"), "volume"))
                 .order_by("symbol"))

    with QueryServer(catalog, backend="process", parallelism=4,
                     max_inflight=4, queue_limit=64,
                     pool_workers=2) as server:
        print("Serving with:", server.backend.describe())

        async def async_client(i: int) -> int:
            result = await server.submit(by_symbol, min_qty=50 + i % 3)
            return len(result.rows)

        async def fan_out() -> list[int]:
            return await asyncio.gather(*[async_client(i) for i in range(8)])

        sizes = asyncio.run(fan_out())
        print(f"8 async clients served; result sizes {sorted(set(sizes))}")

        # Threads use the sync facade against the same server.
        def thread_client() -> None:
            result = server.execute(report)
            assert result.rows == sorted(
                result.rows, key=lambda r: (r[1], r[0], r[2], r[3]))

        threads = [threading.Thread(target=thread_client) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        print("3 thread clients served the full sorted report")

        # A cooperative client: same queries, but admission rejections
        # and timeouts are retried with jittered backoff honouring the
        # server's retry_after hints, under a shared rate limit.
        client = RetryingClient(
            server,
            RetryPolicy(max_attempts=8, base_delay=0.02, max_delay=0.5,
                        rate_limit=200.0, burst=4),
            tenant="quickstart")

        async def cooperative(i: int) -> int:
            result = await client.submit(by_symbol, min_qty=50 + i % 3)
            return len(result.rows)

        async def cooperative_fan_out() -> list[int]:
            return await asyncio.gather(
                *[cooperative(i) for i in range(12)])

        asyncio.run(cooperative_fan_out())
        print(f"RetryingClient round trip: {client.stats()}")

        print("\nServer stats():")
        stats = server.stats()
        for key in ("submitted", "completed", "rejected_queue_full",
                    "rejected_quota", "rejected_circuit", "timeouts",
                    "circuit_state", "local_queries", "streamed_queries",
                    "subplan_cache_hits", "cache_hits", "cache_misses",
                    "sessions", "shard_merge_plans", "latency_p50_ms",
                    "latency_p95_ms", "worker_utilization"):
            value = stats[key]
            shown = f"{value:.3f}" if isinstance(value, float) else value
            print(f"  {key} = {shown}")
        print("  tenants =", sorted(stats["tenants"]))


if __name__ == "__main__":
    main()
