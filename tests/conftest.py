"""Shared fixtures: small deterministic catalogs and queries."""

from __future__ import annotations

import random

import pytest

from repro import workloads
from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import batches_of, flatten_batches, sort_batches
from repro.storage import Catalog, Schema, SystemParameters


@pytest.fixture
def rng():
    return random.Random(20240610)


@pytest.fixture
def small_catalog(rng):
    """Two joinable tables + a covering index, small enough for exhaustive
    reference computations."""
    cat = Catalog()
    left_schema = Schema.of(("a", "int", 8), ("b", "int", 8), ("x", "int", 8))
    right_schema = Schema.of(("c", "int", 8), ("d", "int", 8), ("y", "int", 8))
    left_rows = [(rng.randrange(12), rng.randrange(6), i) for i in range(400)]
    right_rows = [(rng.randrange(12), rng.randrange(6), i) for i in range(300)]
    cat.create_table("left", left_schema, rows=left_rows,
                     clustering_order=SortOrder(["a"]))
    cat.create_table("right", right_schema, rows=right_rows,
                     clustering_order=SortOrder(["c", "d"]))
    cat.create_index("left_ab", "left", SortOrder(["a", "b"]), included=["x"])
    return cat


@pytest.fixture
def tpch_mini():
    """Materialised miniature TPC-H catalog (deterministic)."""
    cat = workloads.tpch_catalog(scale=0.002, seed=99)
    workloads.add_query3_indexes(cat)
    return cat


@pytest.fixture
def query3():
    return workloads.query3()


def fig16_cases():
    """``(name, stats catalog, query)`` for the paper's Fig. 16 queries."""
    cat3 = workloads.tpch_stats_catalog()
    workloads.add_query3_indexes(cat3)
    return [
        ("Q3", cat3, workloads.query3()),
        ("Q4", workloads.r_tables_stats_catalog(
            params=SystemParameters(sort_memory_blocks=250)),
         workloads.query4()),
        ("Q5", workloads.trading_stats_catalog(), workloads.query5()),
        ("Q6", workloads.trading_stats_catalog(), workloads.query6()),
    ]


def reference_query3(catalog):
    """Hand-computed Query 3 answer on a materialised catalog."""
    ps = catalog.table("partsupp").rows
    li = catalog.table("lineitem").rows
    avail = {(p, s): a for p, s, a, *_ in ps}
    sums: dict[tuple, int] = {}
    for orderkey, linenumber, p, s, qty, price, status, _ in li:
        if status == "O" and (p, s) in avail:
            sums[(p, s)] = sums.get((p, s), 0) + qty
    rows = [(s, p, avail[(p, s)], total)
            for (p, s), total in sums.items() if total > avail[(p, s)]]
    return sorted(rows, key=lambda r: r[1])


def sort_rows(rows, schema, target_order, ctx, known_prefix=EMPTY_ORDER):
    """*rows* sorted on *target_order* by ``sort_batches`` (the Sort
    operator's routine), in batches of *ctx*'s size, as a row stream."""
    return flatten_batches(sort_batches(
        batches_of(rows, ctx.batch_size), schema, target_order, ctx,
        known_prefix))


def clustered(table) -> bool:
    """Whether *table*'s materialised rows honour its clustering order."""
    if not table.is_materialized or not table.clustering_order:
        return True
    key = table.schema.positions(list(table.clustering_order))
    keys = [tuple(row[i] for i in key) for row in table.rows]
    return all(a <= b for a, b in zip(keys, keys[1:]))
