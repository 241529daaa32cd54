"""Figure 16: optimization time vs number of join attributes (§6.3).

A two-relation join on k attributes, k = 2..10.  PYRO-E enumerates k!
interesting orders and blows up; PYRO-P generates k; PYRO-O generates
only as many as there are useful favorable orders (here ≤ 3), staying
essentially flat — the paper's log-scale separation.

Run with ``pytest benchmarks/bench_scalability.py`` (shared results
sink, like the other paper-figure scripts).
"""

import pytest

from repro.bench import format_table, measure
from repro.core.sort_order import SortOrder
from repro.logical import Query
from repro.optimizer import Optimizer
from repro.storage import Catalog, Schema, TableStats

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


def test_fig16_goal_counts(benchmark, results_sink):
    """The underlying cause: subgoals examined per strategy."""
    from repro.core.interesting import make_strategy
    from repro.optimizer.pipeline import PhysicalSelection
    from repro.optimizer import OptimizerConfig
    from repro.core.sort_order import EMPTY_ORDER

    def goals(strategy: str, k: int) -> int:
        cat, q = _catalog_and_query(k)
        strat, partial = make_strategy(strategy)
        config = OptimizerConfig(strategy=strategy,
                                 partial_sort_enforcers=partial,
                                 enable_hash_join=False,
                                 cost_bound_pruning=False)
        run = PhysicalSelection(cat, q.expr, strat, config)
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
