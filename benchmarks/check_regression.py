"""Benchmark-regression gate for CI.

Runs the smoke configurations of ``bench_plan_cache``,
``bench_join_ordering``, ``bench_scalability``, ``bench_kernels``,
``bench_serving``, ``bench_adaptive`` and ``bench_obs``, collects a
small set of optimizer/serving/execution/observability
metrics, and compares them against the checked-in
``BENCH_baseline.json``.  Any metric regressing by more than the
baseline's tolerance (default 20%) fails the build.

Deterministic metrics (cache hit rates, branch-and-bound goal counts,
simulated blocks read) are gated tightly by construction; the
wall-clock metrics (batched-vs-row, columnar-vs-row-engine and
kernel-vs-closure speedups) are gated against *conservative* baselines
so shared-runner noise does not flap the build.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py          # gate
    PYTHONPATH=src python benchmarks/check_regression.py --update # rebaseline
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
BASELINE_PATH = BENCH_DIR / "BENCH_baseline.json"
sys.path.insert(0, str(BENCH_DIR))

from bench_adaptive import run_adaptive_benchmark  # noqa: E402
from bench_obs import run_obs_benchmark  # noqa: E402
from bench_join_ordering import (  # noqa: E402
    run_plan_quality_benchmark,
    run_search_cost_benchmark,
)
from bench_plan_cache import run_cache_benchmark, run_pruning_benchmark  # noqa: E402
from bench_scalability import (  # noqa: E402
    run_batch_speedup,
    run_shard_enforcer_benchmark,
    run_sharded_join_benchmark,
)
from bench_kernels import run_kernel_benchmark  # noqa: E402
from bench_serving import (  # noqa: E402
    run_overload_benchmark,
    run_serving_benchmark,
)

#: Gated wall-clock ratios that only mean something on a multi-core
#: host; on one core they are collected but exempted from the gate.
MULTICORE_ONLY = ("serving_speedup",)


def collect_metrics() -> tuple[dict[str, float], set[str]]:
    """One smoke pass over the benchmarks → (metric dict, skipped names).

    *skipped* lists baselined metrics this host cannot meaningfully
    measure (single-core hosts cannot show a multi-core speedup)."""
    metrics: dict[str, float] = {}
    skipped: set[str] = set()

    cache_rows = run_cache_benchmark(repeats=3)
    for name, _cold, _warm, _speedup, hit_rate in cache_rows:
        metrics[f"cache_hit_rate_{name}"] = float(hit_rate)

    pruning_rows = run_pruning_benchmark(strategies=("pyro-o",))
    for _strategy, name, _exact, bounded, _pct in pruning_rows:
        metrics[f"goals_bounded_{name}"] = float(bounded)

    # Join ordering: the default exhaustive enumerator must keep
    # producing the pre-pipeline plan costs on the Fig. 16 queries
    # (deterministic cost units, gated tightly), and simpli-squared
    # must keep its >= 5x search-effort advantage on the many-join
    # workload (the 5x bar itself is asserted inside the bench).
    _, exhaustive_costs = run_plan_quality_benchmark()
    for name, cost in exhaustive_costs.items():
        metrics[f"join_plan_cost_{name}"] = round(float(cost), 1)
    _, search = run_search_cost_benchmark()
    metrics["join_order_search_ratio"] = search["join_order_search_ratio"]

    exec_result = run_batch_speedup(num_rows=30_000, repeats=2)
    metrics["batch_speedup"] = round(exec_result["speedup"], 3)
    metrics["columnar_speedup"] = round(exec_result["columnar_speedup"], 3)
    metrics["scan_blocks_read"] = float(exec_result["blocks_read"])

    # Expression kernels: whole-column evaluation vs per-row closures.
    kern = run_kernel_benchmark(num_rows=30_000, repeats=2)
    metrics["kernel_speedup"] = round(kern["kernel_speedup"], 3)

    # Shard-aware enforcement: simulated cost units are deterministic, so
    # both absolute costs and the post-union/merge advantage gate tightly.
    shard = run_shard_enforcer_benchmark(num_rows=10_000, parallelisms=(1, 4))
    metrics["shard_merge_cost_units"] = round(shard["shard_merge_cost_units"], 3)
    metrics["post_union_sort_cost_units"] = round(
        shard["post_union_cost_units"], 3)
    metrics["shard_merge_advantage"] = round(shard["shard_merge_advantage"], 3)

    # Sharded join+aggregate: the enforcer composed below a merge join.
    join = run_sharded_join_benchmark(num_rows=10_000)
    metrics["sharded_join_cost_units"] = round(
        join["sharded_join_cost_units"], 3)
    metrics["post_union_join_cost_units"] = round(
        join["post_union_join_cost_units"], 3)
    metrics["sharded_join_advantage"] = round(
        join["sharded_join_advantage"], 3)

    # Serving tier: admission must not reject at steady state and the
    # warmed shared cache must serve the timed run; the process-backend
    # throughput ratio is gated only where cores exist to win with.
    serving = run_serving_benchmark(num_rows=6_000, clients=8, rounds=3)
    metrics["serving_rejections"] = float(serving["serving_rejections"])
    metrics["serving_cache_hit_rate"] = round(
        serving["serving_cache_hit_rate"], 3)
    if serving["cores"] >= 2:
        metrics["serving_speedup"] = round(serving["serving_speedup"], 3)
    else:
        skipped.add("serving_speedup")
        print(f"  (single-core host: serving_speedup "
              f"{serving['serving_speedup']:.2f}x collected but not gated)")

    # Cooperative backpressure: under sustained overload the raw cohort
    # must be shed (rejections are the protocol working) while the
    # retrying cohort keeps goodput — deterministic by construction, so
    # both gate tightly.
    overload = run_overload_benchmark(num_rows=3_000, clients=6, rounds=3)
    metrics["overload_goodput"] = round(overload["overload_goodput"], 3)
    metrics["overload_client_failures"] = float(
        overload["overload_client_failures"])
    metrics["overload_raw_shed"] = overload["overload_raw_shed"]

    # Feedback-driven re-optimization: simulated cost units are
    # deterministic, so the stale-over-converged plan-cost advantage
    # gates reliably; its baseline is pinned so the floor lands on the
    # documented 1.5x acceptance bar.
    adaptive = run_adaptive_benchmark(num_rows=4_000)
    metrics["adaptive_replan_advantage"] = round(
        adaptive["adaptive_replan_advantage"], 3)

    # Observability overhead: tracing must not tax the serving path —
    # the fully-traced server keeps >= 0.90x of the untraced throughput
    # and the configured-but-disabled path stays within 2% (both floors
    # come from pinned baselines).  Same-host throughput ratios on the
    # serial backend, so they gate on single-core hosts too.
    obs = run_obs_benchmark(num_rows=4_000, clients=6, rounds=3, repeats=3)
    metrics["obs_enabled_throughput_ratio"] = round(
        obs["obs_enabled_throughput_ratio"], 3)
    metrics["obs_disabled_throughput_ratio"] = round(
        obs["obs_disabled_throughput_ratio"], 3)
    return metrics, skipped


def compare(metrics: dict[str, float], baseline: dict,
            skipped: set[str] = frozenset()) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    tolerance = float(baseline.get("tolerance", 0.20))
    failures: list[str] = []
    for name, spec in baseline["metrics"].items():
        base = float(spec["value"])
        higher_is_better = bool(spec["higher_is_better"])
        current = metrics.get(name)
        if current is None:
            if name in skipped:
                print(f"  {name:28s} skipped (not measurable on this host)")
                continue
            failures.append(f"{name}: metric missing from current run")
            continue
        if higher_is_better:
            floor = base * (1.0 - tolerance)
            ok = current >= floor
            bound_text = f">= {floor:.3f}"
        else:
            ceiling = base * (1.0 + tolerance)
            ok = current <= ceiling
            bound_text = f"<= {ceiling:.3f}"
        status = "ok" if ok else "REGRESSION"
        print(f"  {name:28s} baseline={base:10.3f} current={current:10.3f} "
              f"({bound_text})  {status}")
        if not ok:
            failures.append(
                f"{name}: {current:.3f} vs baseline {base:.3f} "
                f"(allowed {bound_text})")
    for name in sorted(set(metrics) - set(baseline["metrics"])):
        print(f"  {name:28s} current={metrics[name]:10.3f}  (unbaselined)")
    return failures


def write_baseline(metrics: dict[str, float]) -> None:
    """Re-baseline: deterministic metrics exact, wall-clock conservative."""
    specs = {}
    # Wall-clock ratios are the noisy metrics: pin their baselines so the
    # gate floor (value * (1 - tolerance)) lands on the documented 1.5x
    # acceptance bar whatever the re-baselining host measured.  The
    # serving ratio is pinned even when the host could not measure it
    # (single core), so multi-core CI always gates it.
    pinned = {"adaptive_replan_advantage": round(1.5 / (1.0 - 0.20), 2),
              "batch_speedup": round(1.5 / (1.0 - 0.20), 2),
              "serving_speedup": round(1.5 / (1.0 - 0.20), 2),
              "columnar_speedup": round(1.5 / (1.0 - 0.20), 2),
              "kernel_speedup": round(1.5 / (1.0 - 0.20), 2),
              # Observability overhead floors: 1.125 * 0.80 = 0.90
              # (tracing keeps >= 90% of untraced throughput) and
              # 1.225 * 0.80 = 0.98 (the disabled path is <= 2% tax).
              # Literals, not round(0.90 / 0.80, 2): banker's rounding
              # turns 1.125 into 1.12 and silently loosens the floor.
              "obs_enabled_throughput_ratio": 1.125,
              "obs_disabled_throughput_ratio": 1.225}
    for name, value in {**pinned, **metrics}.items():
        higher_is_better = name.startswith(
            ("adaptive_replan_advantage",
             "cache_hit_rate", "batch_speedup", "columnar_speedup",
             "kernel_speedup", "serving_speedup",
             "serving_cache_hit_rate", "shard_merge_advantage",
             "sharded_join_advantage", "join_order_search_ratio",
             "overload_goodput", "overload_raw_shed",
             "obs_enabled_throughput_ratio",
             "obs_disabled_throughput_ratio"))
        if name in pinned:
            value = pinned[name]
        specs[name] = {"value": value, "higher_is_better": higher_is_better}
    BASELINE_PATH.write_text(json.dumps(
        {"tolerance": 0.20, "metrics": specs}, indent=2, sort_keys=True) + "\n")
    print(f"baseline written to {BASELINE_PATH}")


def main(argv: list[str]) -> int:
    print("collecting benchmark metrics (smoke configuration)...")
    metrics, skipped = collect_metrics()
    if "--update" in argv:
        write_baseline(metrics)
        return 0
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update first")
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    print(f"comparing against {BASELINE_PATH.name} "
          f"(tolerance {baseline.get('tolerance', 0.2):.0%}):")
    failures = compare(metrics, baseline, skipped)
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
