"""Batch/row parity: every query must produce identical rows, orders and
cost-counter totals at any batch size.

The batch-vectorized engine's contract (docs/execution.md): batching is
a pure execution-granularity choice — ``batch_size=1`` degenerates to
the seed's row-at-a-time behaviour, and for run-to-completion queries
the simulated I/O block counts and comparison tallies are *bit-identical*
across batch sizes.  (Early-terminating LIMIT consumers pay scan I/O at
batch granularity, which is why they are exercised for row parity only.)

Property-style: the paper's example queries (Q3 on mini TPC-H, Q4 on the
identical R-tables, Q5/Q6 on the trading workload, Example 1 on the
catalog-consolidation workload) are each executed at batch sizes 1, 7,
64 and 4096 and compared field by field.
"""

import pytest

from repro.engine import ExecutionContext
from repro.optimizer import Optimizer
from repro.service import QuerySession
from repro.storage import SystemParameters
from repro.workloads import (
    consolidation_catalog,
    example1_query,
    identical_r_tables,
    query4,
    query5,
    query6,
    trading_catalog,
)

BATCH_SIZES = (1, 7, 64, 4096)


def _counters(ctx: ExecutionContext) -> dict:
    return {
        "blocks_read": ctx.io.blocks_read,
        "blocks_written": ctx.io.blocks_written,
        "scan_blocks": ctx.io.scan_blocks,
        "run_blocks_written": ctx.io.run_blocks_written,
        "run_blocks_read": ctx.io.run_blocks_read,
        "partition_blocks": ctx.io.partition_blocks,
        "comparisons": ctx.comparisons.value,
        "cost_units": ctx.cost_units(),
        "runs_created": ctx.sort_metrics.runs_created,
        "segments_sorted": ctx.sort_metrics.segments_sorted,
        "in_memory_sorts": ctx.sort_metrics.in_memory_sorts,
    }


def _execute_at(catalog, query, batch_size: int):
    plan = Optimizer(catalog).optimize(query)
    ctx = ExecutionContext(catalog, check_orders=True, batch_size=batch_size)
    rows = plan.to_operator(catalog).run(ctx)
    return rows, _counters(ctx)


def parity_cases():
    small_params = SystemParameters(sort_memory_blocks=64)
    yield "Q4", identical_r_tables(2_000, params=small_params), query4()
    trading = trading_catalog(scale=0.01)
    yield "Q5", trading, query5()
    yield "Q6", trading, query6()
    yield "Example1", consolidation_catalog(scale=0.01), example1_query()


@pytest.mark.parametrize("name,catalog,query",
                         parity_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_example_queries_batch_row_parity(name, catalog, query):
    reference_rows, reference_counters = _execute_at(catalog, query, 1)
    for batch_size in BATCH_SIZES[1:]:
        rows, counters = _execute_at(catalog, query, batch_size)
        assert rows == reference_rows, (name, batch_size)
        assert counters == reference_counters, (name, batch_size)


def test_query3_batch_row_parity(tpch_mini, query3):
    reference_rows, reference_counters = _execute_at(tpch_mini, query3, 1)
    assert reference_rows  # the mini catalog must produce a non-trivial answer
    for batch_size in BATCH_SIZES[1:]:
        rows, counters = _execute_at(tpch_mini, query3, batch_size)
        assert rows == reference_rows, batch_size
        assert counters == reference_counters, batch_size


def test_parity_under_spilling_sorts(rng):
    """Tiny sort memory forces SRS/MRS run spills; tallies must still be
    batch-size independent."""
    from repro.core.sort_order import SortOrder
    from repro.engine import Sort, TableScan
    from repro.storage import Catalog, Schema

    params = SystemParameters(block_size=256, sort_memory_blocks=4)
    cat = Catalog(params)
    schema = Schema.of(("a", "int", 8), ("b", "int", 8), ("v", "int", 8))
    rows = [(rng.randrange(5), rng.randrange(1000), i) for i in range(3000)]
    cat.create_table("t", schema, rows=rows, clustering_order=SortOrder(["a"]))

    def run(prefix, batch_size):
        op = Sort(TableScan(cat.table("t")), SortOrder(["a", "b"]),
                  known_prefix=prefix)
        ctx = ExecutionContext(cat, batch_size=batch_size)
        return op.run(ctx), _counters(ctx)

    for prefix in (SortOrder(), SortOrder(["a"])):  # SRS, MRS
        ref_rows, ref_counters = run(prefix, 1)
        assert ref_counters["blocks_written"] > 0 or prefix
        for batch_size in (3, 257, 4096):
            got_rows, got_counters = run(prefix, batch_size)
            assert got_rows == ref_rows, (prefix, batch_size)
            assert got_counters == ref_counters, (prefix, batch_size)


def test_limit_row_parity(tpch_mini):
    """LIMIT answers are batch-size independent (its I/O legitimately is
    not — early termination stops paying at batch granularity)."""
    from repro.logical import Query
    query = (Query.table("partsupp")
             .select("ps_partkey", "ps_suppkey", "ps_availqty")
             .order_by("ps_partkey", "ps_suppkey")
             .limit(25))
    session = QuerySession(tpch_mini)
    reference = session.execute(
        query, ctx=ExecutionContext(tpch_mini, batch_size=1))
    assert len(reference) == 25
    for batch_size in BATCH_SIZES[1:]:
        assert session.execute(query, ctx=ExecutionContext(
            tpch_mini, batch_size=batch_size)) == reference


def test_parallel_execution_row_parity(tpch_mini, query3):
    """Sharded execution returns the same rows in the same order."""
    session = QuerySession(tpch_mini)
    reference = session.execute(query3)
    for parallelism in (2, 5):
        assert session.execute(query3, parallelism=parallelism) == reference
