"""Re-prepares after a statistics change keep the statistics-free half.

A plan-cache entry goes stale when a table it reads has its statistics
refreshed.  The session's next prepare of that query searches again, but
on the previous search's group table (groups, used attributes,
favorable orders), which no statistic feeds, so only costing is redone.  These
tests hold that re-prepare to a fresh session's answer:

* after the rows *and* the statistics of a table change, every
  ``short_churn`` shape, the many-join query and the paper ledger's
  queries re-prepare to the same plan, ``total_cost`` and ``explain()``
  as a fresh session, under all three join enumerators at parallelism 1
  and 4;
* an index registered between prepares is used exactly as a fresh
  session uses it, and that re-prepare builds its groups afresh;
* ``SessionMetrics.reprepares`` counts the reuse: four per
  ``short_churn`` block, none after an index lands;
* two ``QueryServer`` dispatch threads re-preparing the same shapes at
  once return a fresh session's rows and leave its plans in the cache.
  The run's seed is ``REPRO_FUZZ_SEED`` (default 0).
"""

import os
import random
import threading

import pytest

from repro.core.sort_order import SortOrder
from repro.expr import col, param
from repro.expr.aggregates import agg_sum, count_star
from repro.logical import Query
from repro.optimizer.volcano import split_required_order
from repro.service import QueryServer, QuerySession
from repro.storage import Catalog, Schema, SystemParameters
from repro.workloads import (
    add_query3_indexes,
    example1_query,
    consolidation_catalog,
    identical_r_tables,
    many_join_catalog,
    many_join_query,
    query3,
    query4,
    query5,
    query6,
    tpch_catalog,
    trading_catalog,
)

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
ENUMERATORS = ("exhaustive", "simpli-squared", "greedy-m2m")
KEYS, GROUPS = 60, 12


# -- the short_churn catalog and shapes ----------------------------------------------------
def churn_catalog(seed=1, rows=600):
    """``hot`` and ``cold``, four columns each, clustered on ``_k``."""
    rng = random.Random(seed)
    catalog = Catalog(SystemParameters())
    for name in ("hot", "cold"):
        schema = Schema.of((f"{name}_k", "int", 8), (f"{name}_g", "int", 8),
                           (f"{name}_v", "int", 8), (f"{name}_s", "str", 16))
        catalog.create_table(name, schema, rows=[
            (i % KEYS, rng.randrange(GROUPS), rng.randrange(1000),
             f"s{rng.randrange(50)}") for i in range(rows)],
            clustering_order=SortOrder([f"{name}_k"]))
    return catalog


def churn_shapes():
    shapes = {}
    for t in ("hot", "cold"):
        k, g, v, s = (f"{t}_{c}" for c in "kgvs")
        shapes[f"{t}_point"] = (
            Query.table(t).where(col(k).eq(param("k"))).order_by(v, s))
        shapes[f"{t}_agg"] = (
            Query.table(t).where(col(g).eq(param("g")))
            .group_by([k], count_star("n"), agg_sum(col(v), "tot")))
        shapes[f"{t}_range"] = (
            Query.table(t).where(col(v).ge(param("lo")))
            .select(k, v).order_by(k, v))
    shapes["join"] = (
        Query.table("hot").where(col("hot_g").eq(param("g")))
        .join(Query.table("cold").where(col("cold_g").eq(param("g2"))),
              on=[("hot_k", "cold_k")])
        .group_by(["hot_k"], count_star("n")))
    return shapes


HOT_SHAPES = ("hot_point", "hot_agg", "hot_range", "join")


def draw_binds(shape, rng):
    if shape.endswith("_point"):
        return {"k": rng.randrange(KEYS)}
    if shape.endswith("_agg"):
        return {"g": rng.randrange(GROUPS)}
    if shape.endswith("_range"):
        return {"lo": rng.choice((900, 925, 950, 975))}
    return {"g": rng.randrange(GROUPS), "g2": rng.randrange(GROUPS)}


def rewrite_column(catalog, table_name, position, value_of):
    """Change one non-clustering column of every row in place, then
    refresh the table's statistics (which therefore change)."""
    rows = catalog.table(table_name).rows
    for i, row in enumerate(rows):
        rows[i] = row[:position] + (value_of(i, row),) + row[position + 1:]
    catalog.refresh_stats(table_name)


def truncate(catalog, table_name, keep):
    """Drop all but the first *keep* rows (clustering holds), then
    refresh the table's statistics."""
    del catalog.table(table_name).rows[keep:]
    catalog.refresh_stats(table_name)


# -- the queries: short_churn, many-join and the ledger's -----------------------------------
def setups():
    """``(catalog, queries, change)``: *change* rewrites rows and
    refreshes statistics of tables every query in *queries* reads."""
    shapes = churn_shapes()
    yield (churn_catalog(), [shapes[name] for name in HOT_SHAPES],
           lambda c: rewrite_column(c, "hot", 1, lambda i, r: i % 3))
    yield (many_join_catalog(), [many_join_query()],
           lambda c: (rewrite_column(c, "l1", 1, lambda i, r: i % 2),
                      rewrite_column(c, "r1", 2, lambda i, r: i)))
    tpch = tpch_catalog(scale=0.002, seed=99)
    add_query3_indexes(tpch)
    yield (tpch, [query3()],
           lambda c: rewrite_column(c, "lineitem", 4, lambda i, r: i % 4 + 1))
    yield (identical_r_tables(num_rows=400), [query4()],
           lambda c: rewrite_column(c, "r1", 3, lambda i, r: i))

    def trading_change(c):
        truncate(c, "basket", 300)
        # The aliases share tran's rows and keep statistics of their own.
        truncate(c, "tran", 1_000)
        c.refresh_stats("tran_t1")
        c.refresh_stats("tran_t2")
    yield (trading_catalog(scale=0.002), [query5(), query6()], trading_change)
    yield (consolidation_catalog(scale=0.0005), [example1_query()],
           lambda c: truncate(c, "catalog1", 400))


def plan_shape(plan):
    """Everything a plan node states, recursively."""
    return (plan.op, plan.order, plan.schema.names, repr(plan.args),
            plan.self_cost, plan.rows,
            tuple(plan_shape(child) for child in plan.children))


def assert_same_plan(prepared, fresh):
    assert prepared.explain() == fresh.explain()
    assert prepared.total_cost == fresh.total_cost
    assert plan_shape(prepared.plan) == plan_shape(fresh.plan)
    assert prepared.param_names == fresh.param_names


# -- equivalence with a fresh session -----------------------------------------------------
@pytest.mark.parametrize("parallelism", (1, 4))
@pytest.mark.parametrize("enumerator", ENUMERATORS)
def test_reprepare_after_changed_stats_equals_a_fresh_session(enumerator,
                                                               parallelism):
    reused = kept = queries = 0
    for catalog, batch, change in setups():
        session = QuerySession(catalog, join_enumerator=enumerator)
        for query in batch:
            session.prepare(query, parallelism=parallelism)
        before = session.metrics.reprepares
        change(catalog)
        again = [session.prepare(query, parallelism=parallelism)
                 for query in batch]
        assert not any(p.from_cache for p in again)
        fresh = QuerySession(catalog, join_enumerator=enumerator)
        for query, prepared in zip(batch, again):
            assert_same_plan(prepared,
                             fresh.prepare(query, parallelism=parallelism))
        reused += session.metrics.reprepares - before
        queries += len(batch)
        # Groups are kept only where stage 2 hands back the very tree
        # searched before: the written one, unless the enumerator rebuilt
        # a join region (statistics may have moved its order).
        enumerator_of = session.optimizer.enumerator
        kept += sum(enumerator_of.reorder(catalog, expr) is expr
                    for expr, _ in map(split_required_order, batch))
    assert reused == kept
    if enumerator == "exhaustive":
        assert kept == queries
    else:
        assert 0 < kept < queries


def test_new_index_is_used_as_by_a_fresh_session():
    catalog = churn_catalog(seed=SEED)
    shapes = churn_shapes()
    session = QuerySession(catalog)
    for name in HOT_SHAPES:
        session.prepare(shapes[name])
    catalog.refresh_stats("hot")
    for name in HOT_SHAPES:
        session.prepare(shapes[name])
    before = session.metrics.reprepares
    catalog.create_index("hot_v_cov", "hot", SortOrder(["hot_v"]),
                         included=["hot_k"])
    again = {name: session.prepare(shapes[name]) for name in HOT_SHAPES}
    assert session.metrics.reprepares == before
    fresh = QuerySession(catalog)
    for name, prepared in again.items():
        assert_same_plan(prepared, fresh.prepare(shapes[name]))
    used = [node.arg("index") for node in again["hot_range"].plan.walk()]
    assert "hot_v_cov" in used


# -- the counter ---------------------------------------------------------------------------
def test_reprepares_count_one_per_hot_shape_per_block():
    catalog = churn_catalog()
    shapes = churn_shapes()
    session = QuerySession(catalog)
    for query in shapes.values():
        session.prepare(query)
    assert session.metrics.reprepares == 0

    def block():
        before = (session.metrics.reprepares, session.metrics.optimizations)
        for name in HOT_SHAPES:
            session.prepare(shapes[name])
        for name in shapes.keys() - set(HOT_SHAPES):
            assert session.prepare(shapes[name]).from_cache
        return (session.metrics.reprepares - before[0],
                session.metrics.optimizations - before[1])

    catalog.refresh_stats("hot")
    assert block() == (4, 4)
    catalog.create_index("hot_gk", "hot", SortOrder(["hot_g", "hot_k"]),
                         included=["hot_v"])
    assert block() == (0, 4)
    catalog.refresh_stats("hot")
    assert block() == (4, 4)
    assert session.stats()["reprepares"] == 8


# -- two dispatch threads ------------------------------------------------------------------
def test_two_dispatch_threads_reprepare_the_same_shapes():
    rng = random.Random(SEED)
    catalog = churn_catalog(seed=SEED)
    shapes = churn_shapes()
    with QueryServer(catalog, max_inflight=2) as server:
        for block in range(6):
            if block:
                rewrite_column(catalog, "hot", 2,
                               lambda i, r: (r[2] * 7 + block) % 1000)
            fresh = QuerySession(catalog)
            jobs = [[(name, draw_binds(name, rng))
                     for name in rng.sample(sorted(shapes), len(shapes))]
                    for _ in range(2)]
            expected = {(name, tuple(sorted(binds.items()))):
                        fresh.execute(shapes[name], **binds)
                        for thread_jobs in jobs for name, binds in thread_jobs}
            start = threading.Barrier(2)
            got = [[], []]

            def client(k):
                start.wait()
                for name, binds in jobs[k]:
                    # A deadline sends the query to a dispatch thread.
                    result = server.execute(shapes[name], timeout=60, **binds)
                    got[k].append(((name, tuple(sorted(binds.items()))),
                                   result.rows))

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert sum(map(len, got)) == 2 * len(shapes)
            for key, rows in got[0] + got[1]:
                assert rows == expected[key], key
            reader = QuerySession(catalog, cache=server.cache)
            for name, query in shapes.items():
                cached = reader.prepare(query)
                assert cached.from_cache
                assert_same_plan(cached, fresh.prepare(query))
        stats = server.stats()
    assert stats["failed"] == 0 and stats["timeouts"] == 0
    assert stats["cache_misses"] == stats["optimizations"]
    assert stats["reprepares"] > 0
