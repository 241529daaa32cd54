"""Scalability benchmarks: optimizer (Fig. 16) and execution engine.

Part 1 — Figure 16, optimization time vs number of join attributes
(§6.3).  A two-relation join on k attributes, k = 2..10.  PYRO-E
enumerates k! interesting orders and blows up; PYRO-P generates k;
PYRO-O generates only as many as there are useful favorable orders
(here ≤ 3), staying essentially flat — the paper's log-scale separation.

Part 2 — execution-side scale-out: the batch-vectorized engine vs
row-at-a-time (``batch_size=1``) on the large synthetic workload, plus
sharded-scan execution through the BatchedExecutor.  Simulated costs
are asserted identical; only wall-clock changes.

Part 3 — shard-aware order enforcement: one post-union full sort above
the exchange vs per-shard sorts under an order-preserving MergeExchange,
across parallelism 1/2/4.  Sized so the post-union sort spills while the
individual shards fit in sort memory — the regime the enforcer pushdown
targets — and gated on *simulated cost units* (deterministic) by
``check_regression.py``.

Part 4 — shard-aware enforcement under a join+aggregate: the
sort-order-consuming ``r ⋈ dim ON c2=d2 GROUP BY c2 ORDER BY c2`` plan
at parallelism 4, per-shard enforcers composed below the merge join vs
the post-union spilling sort (the ``parallelism=1`` plan run sharded).  Also
gated on simulated cost units.

Two modes:

* ``pytest benchmarks/bench_scalability.py`` — full run with the shared
  results sink;
* ``python benchmarks/bench_scalability.py [--smoke]`` — standalone
  script (used by CI's regression gate), no pytest required.
"""

import sys
import time

import pytest

from repro.bench import format_table, measure
from repro.core.sort_order import SortOrder
from repro.engine import (
    BatchedExecutor,
    Compute,
    ExecutionContext,
    Filter,
    Project,
    Sort,
    TableScan,
)
from repro.expr import And, col
from repro.logical import Query
from repro.optimizer import Optimizer
from repro.service import QuerySession
from repro.storage import Catalog, Schema, SystemParameters, TableStats
from repro.workloads import segmented_catalog

MAX_ATTRS = 10
EXHAUSTIVE_MAX = 6


def _catalog_and_query(k: int):
    cat = Catalog()
    left_cols = [(f"a{i}", "int", 8) for i in range(k)]
    right_cols = [(f"b{i}", "int", 8) for i in range(k)]
    cat.create_table("l", Schema.of(*left_cols),
                     stats=TableStats(1_000_000, {f"a{i}": 100 for i in range(k)}),
                     clustering_order=SortOrder(["a0", "a1"][:min(2, k)]))
    cat.create_table("r", Schema.of(*right_cols),
                     stats=TableStats(1_000_000, {f"b{i}": 100 for i in range(k)}))
    q = Query.table("l").join("r", on=[(f"a{i}", f"b{i}") for i in range(k)])
    return cat, q


def _time_optimization(strategy: str, k: int) -> float:
    cat, q = _catalog_and_query(k)
    # The figure reproduces the paper's *unpruned* Volcano search effort,
    # so the serving-oriented branch-and-bound pruning is switched off.
    opt = Optimizer(cat, strategy=strategy, enable_hash_join=False,
                    refine=False, cost_bound_pruning=False)
    seconds, _ = measure(lambda: opt.optimize(q))
    return seconds * 1000.0  # ms


@pytest.fixture(scope="module")
def timings():
    table: dict[int, dict[str, float]] = {}
    for k in range(2, MAX_ATTRS + 1):
        row = {
            "pyro-p": _time_optimization("pyro-p", k),
            "pyro-o": _time_optimization("pyro-o", k),
        }
        if k <= EXHAUSTIVE_MAX:
            row["pyro-e"] = _time_optimization("pyro-e", k)
        table[k] = row
    return table


def test_fig16_scalability(benchmark, timings, results_sink):
    benchmark.pedantic(lambda: _time_optimization("pyro-o", 8),
                       rounds=3, iterations=1)

    rows = []
    for k, row in timings.items():
        rows.append([k, round(row["pyro-p"], 2), round(row["pyro-o"], 2),
                     round(row.get("pyro-e", float("nan")), 2)])
    results_sink(format_table(
        ["#attributes", "PYRO-P ms", "PYRO-O ms", "PYRO-E ms"],
        rows,
        title="Figure 16 — optimization time vs number of join attributes"))

    # PYRO-E's factorial blow-up: time at k=6 dwarfs k=3.
    assert timings[EXHAUSTIVE_MAX]["pyro-e"] > timings[3]["pyro-e"] * 20
    # PYRO-O stays near-flat: growing k by 5 costs < 15×.
    assert timings[MAX_ATTRS]["pyro-o"] < max(timings[4]["pyro-o"], 1.0) * 15
    # At 6 attributes PYRO-E is already far slower than PYRO-O.
    assert timings[EXHAUSTIVE_MAX]["pyro-e"] > \
        timings[EXHAUSTIVE_MAX]["pyro-o"] * 10


# -- execution engine: batch vs row, sharded scans ---------------------------------------
def _exec_pipeline(catalog, sort: bool = False):
    """Scan → filter → project (→ partial sort) over the synthetic table."""
    op = Project(Filter(TableScan(catalog.table("r")),
                        col("c2").lt(800_000)), ["c1", "c2"])
    if sort:
        op = Sort(op, SortOrder(["c1", "c2"]))  # MRS partial sort on c1
    return op


def _kernel_pipeline(catalog, sort: bool = False):
    """Expression-heavy variant: compound filter + computed columns —
    the shape the whole-column kernels accelerate.  ``sort`` is ignored
    (same signature as ``_exec_pipeline`` for ``_timed_run``)."""
    scan = TableScan(catalog.table("r"))
    filt = Filter(scan, And(col("c2").lt(800_000), col("c1").ge(10)))
    comp = Compute(filt, [("v", col("c2") * 3 + col("c1")),
                          ("w", col("c2") - col("c1"))])
    return Project(comp, ["c1", "v", "w"])


def _timed_run(catalog, batch_size: int, parallelism: int = 1,
               sort: bool = False, columnar: bool = True,
               pipeline=_exec_pipeline) -> tuple[float, int, dict]:
    op = pipeline(catalog, sort=sort)
    ctx = ExecutionContext(catalog, batch_size=batch_size, columnar=columnar)
    executor = BatchedExecutor(parallelism=parallelism)
    start = time.perf_counter()
    rows = executor.run(op, ctx)
    seconds = time.perf_counter() - start
    counters = {"blocks_read": ctx.io.blocks_read,
                "comparisons": ctx.comparisons.value}
    return seconds, len(rows), counters


def run_batch_speedup(num_rows: int = 200_000, repeats: int = 3) -> dict:
    """Wall-clock of the batched path vs row-at-a-time (batch_size=1),
    and of the columnar kernel engine vs the row-tuple batched engine
    (``columnar=False`` — the same batches, per-row compiled closures)
    on the expression-heavy kernel pipeline.

    Asserts identical result cardinality and identical simulated I/O —
    batching and evaluation layout are execution-granularity choices,
    not semantics changes.
    """
    catalog = segmented_catalog(num_rows, 100)
    row_s, row_n, row_counters = min(
        (_timed_run(catalog, batch_size=1) for _ in range(repeats)),
        key=lambda r: r[0])
    batch_s, batch_n, batch_counters = min(
        (_timed_run(catalog, batch_size=1024) for _ in range(repeats)),
        key=lambda r: r[0])
    shard_s, shard_n, _ = min(
        (_timed_run(catalog, batch_size=1024, parallelism=4)
         for _ in range(repeats)),
        key=lambda r: r[0])
    # The columnar gate runs on the kernel pipeline: compound predicate
    # plus computed columns, where expression evaluation dominates.
    kern_row_s, kern_row_n, kern_row_counters = min(
        (_timed_run(catalog, batch_size=1024, columnar=False,
                    pipeline=_kernel_pipeline) for _ in range(repeats)),
        key=lambda r: r[0])
    kern_col_s, kern_col_n, kern_col_counters = min(
        (_timed_run(catalog, batch_size=1024, pipeline=_kernel_pipeline)
         for _ in range(repeats)),
        key=lambda r: r[0])
    assert row_n == batch_n == shard_n
    assert row_counters == batch_counters
    assert kern_row_n == kern_col_n
    assert kern_row_counters == kern_col_counters
    return {
        "num_rows": num_rows,
        "result_rows": batch_n,
        "row_ms": row_s * 1000.0,
        "batch_ms": batch_s * 1000.0,
        "sharded_ms": shard_s * 1000.0,
        "kernel_rowengine_ms": kern_row_s * 1000.0,
        "kernel_columnar_ms": kern_col_s * 1000.0,
        "speedup": row_s / batch_s if batch_s else float("inf"),
        "columnar_speedup": (kern_row_s / kern_col_s if kern_col_s
                             else float("inf")),
        "blocks_read": batch_counters["blocks_read"],
    }


EXEC_HEADERS = ["input rows", "result rows", "row-at-a-time ms",
                "batched ms", "sharded(4) ms", "speedup",
                "kernel pipe row-engine ms", "kernel pipe columnar ms",
                "columnar speedup"]


def _exec_rows(result: dict) -> list:
    return [[result["num_rows"], result["result_rows"],
             round(result["row_ms"], 1),
             round(result["batch_ms"], 1),
             round(result["sharded_ms"], 1), round(result["speedup"], 2),
             round(result["kernel_rowengine_ms"], 1),
             round(result["kernel_columnar_ms"], 1),
             round(result["columnar_speedup"], 2)]]


def test_batch_beats_row_at_a_time(benchmark, results_sink):
    result = benchmark.pedantic(run_batch_speedup, rounds=1, iterations=1)
    results_sink(format_table(
        EXEC_HEADERS, _exec_rows(result),
        title="Execution scale-out — batch-vectorized vs row-at-a-time "
              "(large synthetic workload)"))
    benchmark.extra_info["batch_speedup"] = result
    # The acceptance bars: ≥ 2× wall-clock win for the batched path over
    # row-at-a-time, and ≥ 2× for the columnar kernels over the
    # row-tuple batched engine on the same batches.
    assert result["speedup"] >= 2.0, result
    assert result["columnar_speedup"] >= 2.0, result


def test_sorted_pipeline_parity_and_speedup(results_sink):
    """With a partial sort on top (MRS segments), batches still win and
    tallies stay identical."""
    catalog = segmented_catalog(60_000, 100)
    row_s, row_n, row_counters = _timed_run(catalog, 1, sort=True)
    batch_s, batch_n, batch_counters = _timed_run(catalog, 1024, sort=True)
    assert row_n == batch_n
    assert row_counters == batch_counters
    assert batch_s < row_s
    results_sink(format_table(
        ["variant", "ms", "comparisons"],
        [["row-at-a-time + MRS", round(row_s * 1000, 1),
          row_counters["comparisons"]],
         ["batched + MRS", round(batch_s * 1000, 1),
          batch_counters["comparisons"]]],
        title="Execution scale-out — filtered MRS pipeline, row vs batch"))


def test_fig16_goal_counts(benchmark, results_sink):
    """The underlying cause: subgoals examined per strategy."""
    from repro.core.interesting import make_strategy
    from repro.optimizer.volcano import OptimizationRun
    from repro.optimizer import OptimizerConfig
    from repro.core.sort_order import EMPTY_ORDER

    def goals(strategy: str, k: int) -> int:
        cat, q = _catalog_and_query(k)
        strat, partial = make_strategy(strategy)
        config = OptimizerConfig(strategy=strategy,
                                 partial_sort_enforcers=partial,
                                 enable_hash_join=False,
                                 cost_bound_pruning=False)
        run = OptimizationRun(cat, q.expr, strat, config)
        run.optimize_goal(q.expr, EMPTY_ORDER)
        return run.goals_examined

    counts = benchmark.pedantic(
        lambda: {s: goals(s, 5) for s in ("pyro", "pyro-p", "pyro-o", "pyro-e")},
        rounds=1, iterations=1)
    assert counts["pyro-e"] > counts["pyro-p"] > counts["pyro"]
    assert counts["pyro-o"] <= counts["pyro-p"]
    results_sink(format_table(
        ["strategy", "optimization subgoals (k=5)"],
        [[s, n] for s, n in counts.items()],
        title="Figure 16 (cause) — subgoals examined at 5 join attributes"))


# -- shard-aware order enforcement -------------------------------------------------------
def run_shard_enforcer_benchmark(num_rows: int = 30_000,
                                 parallelisms: tuple = (1, 2, 4)) -> dict:
    """Post-union full sort vs per-shard sort + MergeExchange.

    The catalog is sized so the full ORDER BY c2 sort spills (B > M)
    while half and quarter shards fit in sort memory — per-shard
    enforcement then skips the run I/O entirely and the merge costs only
    CPU.  Simulated cost units are deterministic; wall-clock is reported
    but not gated.
    """
    # 200-byte rows: B ≈ num_rows/20 blocks.  Memory of B/2 blocks puts
    # parallelism 2 and 4 in the in-memory regime and 1 in the spill one.
    memory_blocks = max(4, num_rows // 40)
    catalog = segmented_catalog(
        num_rows, 100, params=SystemParameters(sort_memory_blocks=memory_blocks))
    query = Query.table("r").order_by("c2")
    session = QuerySession(catalog)
    results: dict = {"num_rows": num_rows}
    reference = None
    for parallelism in parallelisms:
        # The post-union baseline is the plan made oblivious to the
        # fan-out, executed at it.
        for mode, planned_at in (("merge", parallelism), ("post_union", 1)):
            prepared = session.prepare(query, parallelism=planned_at)
            ctx = ExecutionContext(catalog)
            start = time.perf_counter()
            rows = prepared.execute(ctx, parallelism=parallelism)
            seconds = time.perf_counter() - start
            if reference is None:
                reference = rows
            assert rows == reference, (mode, parallelism)  # bit-identical
            results[(mode, parallelism)] = {
                "ms": seconds * 1000.0,
                "cost_units": ctx.cost_units(),
                "runs_created": ctx.sort_metrics.runs_created,
            }
    top = max(p for p in parallelisms if p > 1)
    results["post_union_cost_units"] = results[("post_union", top)]["cost_units"]
    results["shard_merge_cost_units"] = results[("merge", top)]["cost_units"]
    results["shard_merge_advantage"] = (
        results["post_union_cost_units"] / results["shard_merge_cost_units"])
    return results


SHARD_HEADERS = ["parallelism", "post-union cost", "merge cost",
                 "post-union ms", "merge ms", "spilled runs (post/merge)"]


def _shard_rows(result: dict, parallelisms=(1, 2, 4)) -> list:
    rows = []
    for p in parallelisms:
        post, merge = result[("post_union", p)], result[("merge", p)]
        rows.append([p, round(post["cost_units"], 1),
                     round(merge["cost_units"], 1),
                     round(post["ms"], 1), round(merge["ms"], 1),
                     f"{post['runs_created']}/{merge['runs_created']}"])
    return rows


def test_shard_enforcers_beat_post_union(benchmark, results_sink):
    result = benchmark.pedantic(run_shard_enforcer_benchmark,
                                rounds=1, iterations=1)
    results_sink(format_table(
        SHARD_HEADERS, _shard_rows(result),
        title="Shard-aware enforcers — post-union sort vs per-shard sort "
              "+ merge exchange (large synthetic workload, ORDER BY c2)"))
    benchmark.extra_info["shard_enforcers"] = {
        k: v for k, v in result.items() if isinstance(k, str)}
    # At parallelism 1 both modes are the same plan.
    assert result[("merge", 1)]["cost_units"] == \
        result[("post_union", 1)]["cost_units"]
    # Sharded per-shard enforcement strictly beats the post-union sort.
    for parallelism in (2, 4):
        assert result[("merge", parallelism)]["cost_units"] < \
            result[("post_union", parallelism)]["cost_units"], parallelism
        assert result[("merge", parallelism)]["runs_created"] == 0
    assert result["shard_merge_advantage"] > 1.5


# -- shard-aware join + aggregate --------------------------------------------------------
def _join_agg_catalog(num_rows: int, memory_blocks: int, c2_domain: int,
                      dim_rows: int, seed: int = 3):
    """Large synthetic ``r`` (clustered on c1, c2 in a bounded domain)
    plus a ``dim`` table keyed on that domain — joining on c2 needs a
    sort of r that spills post-union but fits per shard."""
    import random

    from repro.storage import Schema

    catalog = segmented_catalog(
        num_rows, 100, params=SystemParameters(sort_memory_blocks=memory_blocks))
    rng = random.Random(seed)
    table = catalog.table("r")
    table._rows[:] = [(i // 100, rng.randrange(c2_domain), "p")
                      for i in range(num_rows)]
    table._sort_rows_by(SortOrder(["c1"]))
    table.update_stats()
    catalog.create_table(
        "dim", Schema.of(("d2", "int", 8), ("weight", "int", 8)),
        rows=[(v, rng.randrange(10)) for v in range(dim_rows)],
        primary_key=["d2"])
    return catalog


def run_sharded_join_benchmark(num_rows: int = 20_000,
                               parallelism: int = 4) -> dict:
    """Join+aggregate with shard-aware enforcement vs post-union sort.

    ``SELECT c2, SUM(weight) FROM r JOIN dim ON c2 = d2 GROUP BY c2
    ORDER BY c2`` — the merge join consumes the enforced order and the
    aggregate consumes the join's order, so the single enforcer below
    the join decides the whole plan's I/O profile.  Simulated cost units
    are deterministic; wall-clock is reported but not gated.
    """
    from repro.expr import col
    from repro.expr.aggregates import agg_sum

    catalog = _join_agg_catalog(num_rows, memory_blocks=num_rows // 40,
                                c2_domain=max(100, num_rows // 10),
                                dim_rows=max(100, num_rows // 10))
    query = (Query.table("r")
             .join("dim", on=[("c2", "d2")])
             .group_by(["c2"], agg_sum(col("weight"), "w"))
             .order_by("c2"))
    session = QuerySession(catalog)
    results: dict = {"num_rows": num_rows}
    reference = None
    for mode, planned_at in (("merge", parallelism), ("post_union", 1)):
        prepared = session.prepare(query, parallelism=planned_at)
        ctx = ExecutionContext(catalog)
        start = time.perf_counter()
        rows = prepared.execute(ctx, parallelism=parallelism)
        seconds = time.perf_counter() - start
        if reference is None:
            reference = rows
        assert rows == reference, mode  # bit-identical across placements
        results[mode] = {
            "ms": seconds * 1000.0,
            "cost_units": ctx.cost_units(),
            "estimated_cost": prepared.total_cost,
            "runs_created": ctx.sort_metrics.runs_created,
            "merge_exchanges": len(prepared.plan.find_all("MergeExchange")),
        }
    results["sharded_join_cost_units"] = results["merge"]["cost_units"]
    results["post_union_join_cost_units"] = results["post_union"]["cost_units"]
    results["sharded_join_advantage"] = (
        results["post_union"]["cost_units"] / results["merge"]["cost_units"])
    return results


JOIN_HEADERS = ["placement", "cost units", "estimated cost", "ms",
                "spilled runs", "merge exchanges"]


def _join_rows(result: dict) -> list:
    return [[mode, round(result[mode]["cost_units"], 1),
             round(result[mode]["estimated_cost"], 1),
             round(result[mode]["ms"], 1), result[mode]["runs_created"],
             result[mode]["merge_exchanges"]]
            for mode in ("merge", "post_union")]


def test_sharded_join_agg_beats_post_union(benchmark, results_sink):
    result = benchmark.pedantic(run_sharded_join_benchmark,
                                rounds=1, iterations=1)
    results_sink(format_table(
        JOIN_HEADERS, _join_rows(result),
        title="Shard-aware join+aggregate — per-shard enforcement below "
              "the merge join vs post-union sort (parallelism 4)"))
    benchmark.extra_info["sharded_join"] = {
        k: v for k, v in result.items() if not isinstance(v, dict)}
    assert result["merge"]["merge_exchanges"] >= 1
    assert result["post_union"]["merge_exchanges"] == 0
    # Per-shard enforcement spills nothing; the best shard-oblivious plan
    # pays big spill I/O instead (a Grace hash build or a run-spilling
    # post-union sort, whichever the cost model prefers).
    assert result["merge"]["runs_created"] == 0
    assert result["merge"]["estimated_cost"] < \
        result["post_union"]["estimated_cost"]
    assert result["sharded_join_advantage"] > 1.5


# -- standalone / CI smoke ---------------------------------------------------------------
def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    num_rows = 30_000 if smoke else 200_000
    result = run_batch_speedup(num_rows, repeats=2 if smoke else 3)
    print(format_table(EXEC_HEADERS, _exec_rows(result),
                       title="Execution scale-out — batched vs row-at-a-time"))
    floor = 1.5 if smoke else 2.0  # smoke input is small; keep slack
    if result["speedup"] < floor:
        print(f"FAIL: batched speedup {result['speedup']:.2f}x < {floor}x")
        return 1
    if result["columnar_speedup"] < floor:
        print(f"FAIL: columnar speedup {result['columnar_speedup']:.2f}x "
              f"< {floor}x over the row-tuple batched engine")
        return 1
    shard = run_shard_enforcer_benchmark(10_000 if smoke else 30_000)
    print(format_table(SHARD_HEADERS, _shard_rows(shard),
                       title="Shard-aware enforcers — post-union sort vs "
                             "per-shard sort + merge exchange"))
    if shard["shard_merge_advantage"] <= 1.0:
        print(f"FAIL: per-shard enforcement not cheaper "
              f"(advantage {shard['shard_merge_advantage']:.2f}x)")
        return 1
    join = run_sharded_join_benchmark(10_000 if smoke else 20_000)
    print(format_table(JOIN_HEADERS, _join_rows(join),
                       title="Shard-aware join+aggregate — per-shard "
                             "enforcement vs post-union sort"))
    if join["sharded_join_advantage"] <= 1.0:
        print(f"FAIL: sharded join+aggregate not cheaper "
              f"(advantage {join['sharded_join_advantage']:.2f}x)")
        return 1
    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
