"""Serving-layer quickstart: prepared queries and the plan cache.

A production system does not re-optimize a query it has seen before.
This example builds a small catalog, opens a :class:`QuerySession`,
prepares a *parameterized* query once, executes it for several bindings
(one optimization, many executions), and then shows the cache being
invalidated when table statistics are refreshed.

Run:  python examples/serving_quickstart.py
"""

import random

from repro.core.sort_order import SortOrder
from repro.expr import col, param
from repro.expr.aggregates import agg_sum, count_star
from repro.logical import Query
from repro.service import QuerySession
from repro.storage import Catalog, Schema


def build_catalog() -> Catalog:
    catalog = Catalog()
    orders = Schema.of(
        ("o_id", "int", 8), ("o_customer", "int", 8),
        ("o_region", "str", 12), ("o_total", "num", 8))
    items = Schema.of(
        ("i_order", "int", 8), ("i_product", "int", 8),
        ("i_qty", "int", 8), ("i_price", "num", 8))

    rng = random.Random(2026)
    order_rows = [(i, rng.randrange(200), f"region{rng.randrange(8)}",
                   round(rng.uniform(10, 900), 2)) for i in range(5_000)]
    item_rows = [(rng.randrange(5_000), rng.randrange(300),
                  rng.randrange(1, 9), round(rng.uniform(1, 80), 2))
                 for _ in range(20_000)]

    catalog.create_table("orders", orders, rows=order_rows,
                         clustering_order=SortOrder(["o_id"]),
                         primary_key=["o_id"])
    catalog.create_table("items", items, rows=item_rows,
                         clustering_order=SortOrder(["i_order"]))
    catalog.create_index("items_order_cov", "items", SortOrder(["i_order"]),
                         included=["i_product", "i_qty", "i_price"])
    return catalog


def main() -> None:
    catalog = build_catalog()
    session = QuerySession(catalog, strategy="pyro-o")

    # Revenue per order for ONE region — the region is a parameter, so a
    # single cached plan serves every region.
    template = (Query.table("orders")
                .where(col("o_region").eq(param("region")))
                .join("items", on=[("o_id", "i_order")])
                .compute(line_value=col("i_qty") * col("i_price"))
                .group_by(["o_id", "o_region"],
                          count_star("n_lines"),
                          agg_sum(col("line_value"), "order_value"))
                .order_by("o_id"))

    prepared = session.prepare(template)
    print("Prepared plan (optimized once):")
    print(prepared.explain())

    for region in ("region0", "region3", "region7"):
        rows = prepared.execute(region=region)
        print(f"  {region}: {len(rows)} orders")

    # The same template prepared again is served from the cache — no
    # optimizer call, observable on the counters.
    again = session.prepare(template)
    print(f"\nSecond prepare from_cache={again.from_cache}")
    print(f"optimizations={session.metrics.optimizations}, "
          f"cache hits={session.cache.stats.hits}, "
          f"hit rate={session.cache.stats.hit_rate:.2f}, "
          f"optimize seconds={session.metrics.optimize_seconds:.4f}")

    # Parallelism is a planning input: preparing for a 4-way fan-out
    # lets the search shard scans and place enforcers per shard where
    # that pays (its own cache entry); execution runs the plan as
    # planned.  batch_size only changes execution granularity.  Answers
    # are identical.
    serial = prepared.execute(region="region3")
    sharded = session.prepare(template, parallelism=4).execute(
        region="region3", batch_size=2048)
    print(f"\nPlan prepared for parallelism=4 matches serial: "
          f"{serial == sharded} (batch_size=2048)")

    # Statistics refresh → version bump → the cached plan is stale and
    # the next prepare re-optimizes against the new statistics.  The
    # cache keys plans on the versions of the tables they *reference*,
    # so only plans reading "items" are invalidated.
    catalog.refresh_stats("items")
    refreshed = session.prepare(template)
    print(f"\nAfter stats refresh: from_cache={refreshed.from_cache}, "
          f"invalidations={session.cache.stats.invalidations}, "
          f"optimizations={session.metrics.optimizations}")

    print("\nSession stats():")
    for key, value in session.stats().items():
        print(f"  {key} = {value}")


if __name__ == "__main__":
    main()
