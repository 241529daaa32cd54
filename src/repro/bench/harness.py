"""Experiment harness: run plans on the engine, collect metrics, render
paper-style result tables.

Every benchmark in ``benchmarks/`` funnels through :func:`run_plan` /
:func:`measure`, so all experiments report the same triple:

* **wall seconds** — real Python execution time;
* **simulated I/O blocks** — read+written block transfers;
* **comparisons** — key comparisons counted by the sort/join kernels;
* **cost units** — the paper's combined metric
  (``blocks + comparisons / cpu_rate``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..engine.batch import flatten_batches
from ..engine.context import ExecutionContext
from ..engine.iterators import Operator
from ..optimizer.plans import PhysicalPlan
from ..storage.catalog import Catalog


@dataclass
class RunResult:
    """Metrics of one plan execution."""

    label: str
    rows: int
    wall_seconds: float
    blocks_read: int
    blocks_written: int
    comparisons: int
    cost_units: float
    runs_created: int = 0
    segments_sorted: int = 0
    output_timeline: list[tuple[int, float]] = field(default_factory=list)

    @property
    def total_blocks(self) -> int:
        return self.blocks_read + self.blocks_written


def run_plan(plan: PhysicalPlan | Operator, catalog: Catalog,
             label: str = "", sample_every: int = 0,
             consume: Optional[Callable[[Iterable[tuple]], int]] = None) -> RunResult:
    """Execute a plan, returning engine metrics.

    ``sample_every`` > 0 records an output timeline — ``(rows_produced,
    cost_units_so_far)`` every that many rows — reproducing Experiment
    A2's rate-of-output curves.
    """
    operator = plan.to_operator(catalog) if isinstance(plan, PhysicalPlan) else plan
    ctx = ExecutionContext(catalog)
    timeline: list[tuple[int, float]] = []
    start = time.perf_counter()
    count = 0
    stream = flatten_batches(operator.execute_batches(ctx))
    if consume is not None:
        count = consume(stream)
    else:
        for row in stream:
            count += 1
            if sample_every and count % sample_every == 0:
                timeline.append((count, ctx.cost_units()))
    wall = time.perf_counter() - start
    return RunResult(
        label=label or getattr(plan, "op", operator.name),
        rows=count,
        wall_seconds=wall,
        blocks_read=ctx.io.blocks_read,
        blocks_written=ctx.io.blocks_written,
        comparisons=ctx.comparisons.value,
        cost_units=ctx.cost_units(),
        runs_created=ctx.sort_metrics.runs_created,
        segments_sorted=ctx.sort_metrics.segments_sorted,
        output_timeline=timeline,
    )


def measure(fn: Callable[[], object], label: str = "") -> tuple[float, object]:
    """Time a callable (used for optimization-time experiments)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width ASCII table like the paper's result listings."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:,.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def normalize(costs: dict[str, float], base_key: str,
              scale: float = 100.0) -> dict[str, float]:
    """Normalise costs like the paper's Figure 15 (reference = 100)."""
    base = costs[base_key]
    if base <= 0:
        raise ValueError(f"non-positive base cost for {base_key!r}")
    return {k: scale * v / base for k, v in costs.items()}


def speedup(baseline: RunResult, improved: RunResult,
            metric: str = "cost_units") -> float:
    """How many times better the improved run is on the given metric."""
    denominator = getattr(improved, metric)
    numerator = getattr(baseline, metric)
    if denominator == 0:
        return float("inf") if numerator > 0 else 1.0
    return numerator / denominator
