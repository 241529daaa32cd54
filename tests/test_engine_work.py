"""How much Python the order-exploiting operators run — counted, never timed.

The paper's plans are cheap because PartialSort, MergeJoin and
SortAggregate exploit an order that is already there; the engine keeps
that promise only if exploiting it costs a pass over each batch, not an
interpreter step per group — and the full Sort they are measured
against is one C-level sort of a memory load, not a Python comparison
per heap step.  These tests count Python-level function
calls (``sys.setprofile`` ``call`` events — generator resumptions and
comprehensions included — in code under ``repro``) while each operator
consumes 8 batches of 1,024 rows, and bound the count by a small
multiple of the *batch* count: the runs that close inside a batch are
handled together, whatever their number.  A per-group step is 8,192
calls here, a counted comparison per sort step more still.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import repro
from repro.core.sort_order import SortOrder
from repro.engine import (
    ExecutionContext,
    MergeJoin,
    RowSource,
    Sort,
    SortAggregate,
)
from repro.expr import col
from repro.expr.aggregates import agg_min, agg_sum, count
from repro.expr.expressions import JoinPredicate
from repro.storage import Schema, SystemParameters

BATCHES, BATCH_SIZE = 8, 1024
ROWS = BATCHES * BATCH_SIZE
#: Python calls allowed per input batch (measured: 16 to 39, the most
#: for three aggregates' init/step/final on the one open group).
PER_BATCH = 64

PACKAGE = repro.__path__[0]
SCHEMA = Schema.of(("k1", "int", 8), ("k2", "int", 8), ("v", "int", 8))
OTHER = Schema.of(("j1", "int", 8), ("j2", "int", 8), ("w", "int", 8))


def python_calls(plan, params=None) -> tuple[Counter, list, ExecutionContext]:
    """Calls per function name made under ``repro`` while *plan* runs."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls[frame.f_code.co_qualname] += 1

    ctx = ExecutionContext(params=params, batch_size=BATCH_SIZE)
    sys.setprofile(profile)
    try:
        rows = plan.run(ctx)
    finally:
        sys.setprofile(None)
    return calls, rows, ctx


def test_full_sort_in_memory_is_a_pass_per_batch():
    """SRS of an input that fits in sort memory: one C-level sort."""
    rng = random.Random(4)
    rows = [(rng.randrange(1000), rng.randrange(100), i) for i in range(ROWS)]
    plan = Sort(RowSource(SCHEMA, rows), SortOrder(["k1", "k2"]))
    calls, out, ctx = python_calls(plan)
    assert out == sorted(rows, key=lambda r: r[:2])
    assert ctx.sort_metrics.in_memory_sorts == 1
    assert ctx.comparisons.value == ROWS * 13  # ceil(log2 8192)
    assert not [name for name in calls if "__lt__" in name], calls
    assert sum(calls.values()) <= PER_BATCH * BATCHES, calls


def test_full_sort_that_spills_never_compares_in_python():
    """SRS of four memory loads: the selection heap holds plain tuples,
    so the Python left is per batch, per run and per block read back."""
    rng = random.Random(5)
    rows = [(rng.randrange(1000), rng.randrange(100), i) for i in range(ROWS)]
    params = SystemParameters(sort_memory_blocks=12)  # 2,048 rows
    plan = Sort(RowSource(SCHEMA, rows), SortOrder(["k1", "k2"]))
    calls, out, ctx = python_calls(plan, params)
    assert out == sorted(rows, key=lambda r: r[:2])
    runs = ctx.sort_metrics.runs_created
    assert 1 < runs <= 4 and ctx.sort_metrics.merge_passes == 1
    assert not [name for name in calls if "__lt__" in name], calls
    assert sum(calls.values()) <= \
        PER_BATCH * BATCHES + 8 * (runs + ctx.io.run_blocks_read), calls


def test_partial_sort_of_singleton_segments_is_a_pass_per_batch():
    rng = random.Random(1)
    rows = [(i, rng.randrange(100), i) for i in range(ROWS)]
    plan = Sort(RowSource(SCHEMA, rows, SortOrder(["k1"])),
                SortOrder(["k1", "k2"]), known_prefix=SortOrder(["k1"]))
    calls, out, ctx = python_calls(plan)
    assert out == rows
    assert ctx.sort_metrics.segments_sorted == ROWS
    assert sum(calls.values()) <= PER_BATCH * BATCHES, calls


def test_partial_sort_never_compares_in_python():
    """Four-row segments: one sort call per segment, on raw keys — no
    Python ``__lt__`` per comparison."""
    rng = random.Random(2)
    rows = [(i // 4, rng.randrange(100), i) for i in range(ROWS)]
    plan = Sort(RowSource(SCHEMA, rows, SortOrder(["k1"])),
                SortOrder(["k1", "k2"]), known_prefix=SortOrder(["k1"]))
    calls, out, ctx = python_calls(plan)
    assert out == sorted(rows, key=lambda r: r[:2])
    assert not [name for name in calls if "__lt__" in name], calls
    segments = ROWS // 4
    assert ctx.comparisons.value == ROWS + segments * 4 * 2  # 4 * ceil(log2 4)
    assert sum(calls.values()) <= 2 * segments + PER_BATCH * BATCHES, calls


def test_merge_join_of_singleton_groups_is_a_pass_per_batch():
    left = [(i, 0, i) for i in range(ROWS)]
    right = [(2 * i, 0, -i) for i in range(ROWS)]
    plan = MergeJoin(RowSource(SCHEMA, left, SortOrder(["k1", "k2"])),
                     RowSource(OTHER, right, SortOrder(["j1", "j2"])),
                     JoinPredicate([("k1", "j1"), ("k2", "j2")]))
    calls, out, ctx = python_calls(plan)
    assert out == [(2 * i, 0, 2 * i, 2 * i, 0, -i) for i in range(ROWS // 2)]
    # One step per left group; the right groups below the last left
    # key all match, so each shares its partner's step.
    assert ctx.comparisons.value == ROWS
    assert sum(calls.values()) <= PER_BATCH * 2 * BATCHES, calls


def test_sort_aggregate_of_singleton_groups_is_a_pass_per_batch():
    rng = random.Random(3)
    rows = [(i, 0, rng.randrange(100)) for i in range(ROWS)]
    order = SortOrder(["k1", "k2"])
    plan = SortAggregate(RowSource(SCHEMA, rows, order), order,
                         [agg_sum(col("v"), "s"), count(col("v"), "c"),
                          agg_min(col("v"), "lo")])
    calls, out, ctx = python_calls(plan)
    assert out == [(k1, k2, v, 1, v) for k1, k2, v in rows]
    assert ctx.comparisons.value == ROWS
    assert sum(calls.values()) <= PER_BATCH * BATCHES, calls
