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

The last test counts the path *into* the engine the same way: a warm
execution of a prepared parameterized read rebuilds neither its plan,
nor its operator tree, nor a kernel.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

import repro
from repro.core.sort_order import SortOrder
from repro.engine import (
    ExecutionContext,
    HashAggregate,
    HashJoin,
    MergeJoin,
    RowSource,
    Sort,
    SortAggregate,
    SortedGroupCombine,
)
from repro.expr import col, param
from repro.expr.aggregates import agg_min, agg_sum, count
from repro.expr.expressions import JoinPredicate
from repro.logical import Query
from repro.service import QuerySession
from repro.storage import Catalog, Schema, SystemParameters

BATCHES, BATCH_SIZE = 8, 1024
ROWS = BATCHES * BATCH_SIZE
#: Python calls allowed per input batch (measured: 16 to 39).
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


@pytest.mark.parametrize("leads", [8, ROWS], ids=["8_leads", "distinct_leads"])
def test_full_sort_in_memory_of_tied_or_distinct_leads_is_a_pass_per_batch(leads):
    """The in-memory sort is one sort on the leading column plus one loop
    over its runs of equal leads: with 8 leads every row is in a tie run
    of about a thousand, with distinct leads there is no run to sort.
    Neither costs a Python call per run, and the tally is the rule."""
    rng = random.Random(7)
    rows = [(rng.randrange(leads) if leads < ROWS else i, rng.randrange(100), i)
            for i in range(ROWS)]
    rng.shuffle(rows)
    plan = Sort(RowSource(SCHEMA, rows), SortOrder(["k1", "k2"]))
    calls, out, ctx = python_calls(plan)
    assert out == sorted(rows, key=lambda r: r[:2])
    assert ctx.comparisons.value == ROWS * 13  # ceil(log2 8192)
    assert ctx.sort_metrics.in_memory_sorts == 1
    assert ctx.sort_metrics.segments_sorted == 0
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
    plan = Sort(RowSource(SCHEMA, rows),
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
    plan = Sort(RowSource(SCHEMA, rows),
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
    plan = MergeJoin(RowSource(SCHEMA, left),
                     RowSource(OTHER, right),
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
    plan = SortAggregate(RowSource(SCHEMA, rows), order,
                         [agg_sum(col("v"), "s"), count(col("v"), "c"),
                          agg_min(col("v"), "lo")])
    calls, out, ctx = python_calls(plan)
    assert out == [(k1, k2, v, 1, v) for k1, k2, v in rows]
    assert ctx.comparisons.value == ROWS
    assert sum(calls.values()) <= PER_BATCH * BATCHES, calls


def test_hash_aggregate_of_shuffled_singleton_groups_is_a_pass_per_batch():
    """One kernel call per batch however many groups it opens: no
    Python step per row or per group, their output rows included."""
    rng = random.Random(6)
    rows = [(i, 0, rng.randrange(100)) for i in range(ROWS)]
    rng.shuffle(rows)
    plan = HashAggregate(RowSource(SCHEMA, rows), ["k1", "k2"],
                         [agg_sum(col("v"), "s"), count(col("v"), "c"),
                          agg_min(col("v"), "lo")])
    calls, out, ctx = python_calls(plan)
    assert out == [(k1, k2, v, 1, v) for k1, k2, v in rows]
    assert sum(calls.values()) <= PER_BATCH * BATCHES, calls


def test_hash_join_with_one_match_per_probe_row_is_a_pass_per_batch():
    """Build and probe are plain loops over a batch: no generator, no
    ``any()`` and no buffer call per row."""
    left = [(i, 0, i) for i in range(ROWS)]
    right = [(ROWS - 1 - i, 0, -i) for i in range(ROWS)]
    plan = HashJoin(RowSource(SCHEMA, left), RowSource(OTHER, right),
                    JoinPredicate([("k1", "j1"), ("k2", "j2")]))
    calls, out, ctx = python_calls(plan)
    assert out == [left[k1] + (k1, k2, w) for k1, k2, w in right]
    assert sum(calls.values()) <= PER_BATCH * 2 * BATCHES, calls


def test_sorted_combine_is_a_pass_per_batch():
    """Partials of groups that straddle two shards, folded by one kernel
    call per batch."""
    specs = [agg_sum(col("v"), "s"), count(col("v"), "c"), agg_min(col("v"), "lo")]
    order = SortOrder(["k1", "k2"])
    partials = [(i // 2, 0, i, 1, i) for i in range(ROWS)]
    schema = SortAggregate(RowSource(SCHEMA, []), order, specs).schema
    plan = SortedGroupCombine(RowSource(schema, partials), order,
                              ["k1", "k2"], specs)
    calls, out, ctx = python_calls(plan)
    assert out == [(k, 0, 4 * k + 1, 2, 2 * k) for k in range(ROWS // 2)]
    assert ctx.comparisons.value == ROWS
    assert sum(calls.values()) <= PER_BATCH * BATCHES, calls


def test_warm_prepared_read_rebuilds_nothing_on_the_way_in():
    """The second execution of a prepared ``short_churn``-shaped point
    read (600 rows, ``k = :k ORDER BY v, s``): bind + lower + compile
    were most of the 86 calls (of 149) it made before the root operator
    started or after it returned; 9 of 86 are left.  Now the cache entry's tree runs as it is; the one
    parameterized expression is specialised inside the running
    ``Filter``."""
    rng = random.Random(1)
    catalog = Catalog(SystemParameters())
    schema = Schema.of(("hot_k", "int", 8), ("hot_g", "int", 8),
                       ("hot_v", "int", 8), ("hot_s", "str", 16))
    rows = [(i % 60, rng.randrange(12), rng.randrange(1000),
             f"s{rng.randrange(50)}") for i in range(600)]
    catalog.create_table("hot", schema, rows=rows,
                         clustering_order=SortOrder(["hot_k"]))
    prepared = QuerySession(catalog).prepare(
        Query.table("hot").where(col("hot_k").eq(param("k")))
        .order_by("hot_v", "hot_s"))
    assert len(prepared.execute(k=3)) == 10

    calls: Counter = Counter()
    outside: Counter = Counter()
    running = []  # the root operator's ``run`` frame, while it is live

    def profile(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return
        if event == "call":
            where = (code.co_filename[len(PACKAGE) + 1:], code.co_qualname)
            calls[where] += 1
            if not running:
                outside[where] += 1
                if code.co_qualname == "Operator.run":
                    running.append(frame)
        elif event == "return" and running and frame is running[0]:
            running.pop()

    sys.setprofile(profile)
    try:
        out = prepared.execute(k=7)
    finally:
        sys.setprofile(None)
    assert out == sorted((r for r in rows if r[0] == 7),
                         key=lambda r: (r[2], r[3]))
    files = {file for file, _ in calls}
    assert "engine/lowering.py" not in files, calls
    assert "optimizer/pipeline/parameterization.py" not in files, calls
    names = {name for _, name in calls}
    assert "KernelCache._get" not in names and "Schema.__init__" not in names
    assert ("engine/basic.py", "Filter.execute_batches") in calls
    assert sum(outside.values()) <= 40, outside
    assert sum(calls.values()) <= 110, calls
