"""Batch edges of the closed-run steps, against the row-at-a-time oracle.

PartialSort, MergeJoin and SortAggregate/SortedCombine handle every run
(segment, group) that closes inside the current batch in one step and
carry only the run left open at the batch's end.  Where a batch ends is
therefore the whole risk: these properties draw the runs — from
all-singleton inputs to one run spanning several batches, NULLs in any
key position (an int against a NULL in one column raises ``TypeError``
*inside* a region), ``1`` / ``1.0`` / ``True`` keys that are one group
under three spellings — and hold rows, row order and ``ctx.tallies()``
to ``tests/row_oracle.py`` at batch sizes 1, 2, 3, 7 and 1024, which
also makes the tallies equal across batch sizes.  Rows are compared by
``repr`` so that ``1`` for ``1.0`` (the wrong row of a tie, a float sum
added in another order) is a failure.
"""

from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sort_order import SortOrder
from repro.engine import (
    AGGREGATE_COMBINERS,
    ExecutionContext,
    MergeJoin,
    RowSource,
    Sort,
    SortAggregate,
    SortedGroupCombine,
    null_safe_wrap,
)
from repro.expr import col
from repro.expr.aggregates import (
    AGGREGATES,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    count,
    count_star,
)
from repro.expr.expressions import JoinPredicate
from repro.storage import Schema, SystemParameters
from tests import row_oracle

BATCH_SIZES = (1, 2, 3, 7, 1024)

#: ``1``, ``1.0`` and ``True`` are equal and hash alike: one run.
KEY_VALUES = st.sampled_from([None, 0, 1, 1.0, True, 2, 3])
#: Mostly one row per run; 8 and 22 rows span >= 3 batches of 2, 3 and 7.
RUN_SIZES = st.sampled_from([1, 1, 1, 1, 2, 3, 8, 22])


@st.composite
def runs(draw, max_runs=12):
    """Distinct two-column keys in NULLS FIRST order, each with the
    number of rows it holds."""
    keys = draw(st.lists(st.tuples(KEY_VALUES, KEY_VALUES), max_size=max_runs,
                         unique_by=null_safe_wrap))
    keys.sort(key=null_safe_wrap)
    return [(key, draw(RUN_SIZES)) for key in keys]


def respelled(key, i):
    """*key* with every ``1`` spelled the *i*-th way (still the same key)."""
    return tuple((1, 1.0, True)[i % 3] if v is not None and v == 1 else v
                 for v in key)


def rows_of(drawn, payload):
    """One row ``key + (payload value,)`` per row of every run, the rows
    of one run spelling its key differently."""
    values = iter(payload)
    return [respelled(key, i) + (next(values),)
            for key, size in drawn for i in range(size)]


def same(got, expected):
    assert list(map(repr, got)) == list(map(repr, expected))


# -- merge join --------------------------------------------------------------------------
LEFT = Schema.of(("a", "int", 8), ("b", "int", 8), ("x", "int", 8))
RIGHT = Schema.of(("c", "int", 8), ("d", "int", 8), ("y", "int", 8))


@pytest.mark.parametrize("join_type", ["inner", "left", "full"])
@given(left=runs(), right=runs())
@settings(max_examples=80, deadline=None)
def test_merge_join_regions(join_type, left, right):
    lrows = rows_of(left, range(10_000))
    rrows = rows_of(right, range(50_000, 60_000))
    oracle_ctx = ExecutionContext()
    expected = list(row_oracle.merge_join(lrows, rrows, (0, 1), (0, 1), 3, 3,
                                          join_type, oracle_ctx))
    for batch_size in BATCH_SIZES:
        ctx = ExecutionContext(batch_size=batch_size, check_orders=True)
        plan = MergeJoin(RowSource(LEFT, lrows, SortOrder(["a", "b"])),
                         RowSource(RIGHT, rrows, SortOrder(["c", "d"])),
                         JoinPredicate([("a", "c"), ("b", "d")]), join_type)
        same(plan.run(ctx), expected)
        assert ctx.tallies() == oracle_ctx.tallies(), batch_size


def test_merge_join_region_with_one_side_exhausting_mid_batch():
    """The closed runs of the longer side that lie past the shorter
    side's last key are never compared: the merge stops when either
    side ends, and the tally stops with it."""
    lrows = [(i, 0, i) for i in range(40)]
    rrows = [(i, 0, 100 + i) for i in range(0, 12, 3)]
    for join_type in ("inner", "left"):
        oracle_ctx = ExecutionContext()
        expected = list(row_oracle.merge_join(lrows, rrows, (0, 1), (0, 1), 3,
                                              3, join_type, oracle_ctx))
        for batch_size in BATCH_SIZES:
            ctx = ExecutionContext(batch_size=batch_size)
            plan = MergeJoin(RowSource(LEFT, lrows, SortOrder(["a", "b"])),
                             RowSource(RIGHT, rrows, SortOrder(["c", "d"])),
                             JoinPredicate([("a", "c"), ("b", "d")]), join_type)
            same(plan.run(ctx), expected)
            assert ctx.tallies() == oracle_ctx.tallies(), (join_type, batch_size)


# -- partial sort (MRS) ------------------------------------------------------------------
SORTED = Schema.of(("k1", "int", 8), ("k2", "int", 8), ("v", "int", 8))

#: Two and eight rows of sort memory: at eight, the 8- and 22-row
#: segments spill between in-memory neighbours of the same batch.
SORT_MEMORY = st.sampled_from([SystemParameters(block_size=24, sort_memory_blocks=2),
                               SystemParameters(block_size=96, sort_memory_blocks=2)])


@st.composite
def segments(draw):
    """Rows sorted on k1 (one segment per distinct value, NULL first);
    k2, the column left to sort, holds NULLs, ints and 1/1.0/True."""
    prefixes = sorted(draw(st.sets(st.one_of(st.none(), st.integers(0, 30)),
                                   max_size=12)),
                      key=lambda v: null_safe_wrap((v,)))
    rows = []
    for prefix in prefixes:
        for _ in range(draw(RUN_SIZES)):
            rows.append((prefix, draw(KEY_VALUES), len(rows)))
    return rows


@given(rows=segments(), params=SORT_MEMORY)
@settings(max_examples=120, deadline=None)
def test_partial_sort_regions(rows, params):
    prefix, target = SortOrder(["k1"]), SortOrder(["k1", "k2"])
    oracle_ctx = ExecutionContext(params=params)
    expected = list(row_oracle.mrs_sort(rows, [0], [1], oracle_ctx,
                                        SORTED.row_bytes))
    for batch_size in BATCH_SIZES:
        ctx = ExecutionContext(params=params, batch_size=batch_size,
                               check_orders=True)
        plan = Sort(RowSource(SORTED, rows, prefix), target,
                    known_prefix=prefix, algorithm="mrs")
        same(plan.run(ctx), expected)
        assert ctx.tallies() == oracle_ctx.tallies(), batch_size


def test_partial_sort_spills_in_the_middle_of_a_region():
    """One batch: in-memory segments, a spilling one, in-memory again —
    the spilled segment's rows land between its neighbours'."""
    params = SystemParameters(block_size=96, sort_memory_blocks=2)
    sizes = [1, 3, 1, 20, 2, 1, 9, 1]
    rows = [(seg, (7 * i) % 11, i) for seg, size in enumerate(sizes)
            for i in range(size)]
    rows.append((len(sizes), 0, 0))  # the batch's open segment
    ctx = ExecutionContext(params=params)
    assert ctx.memory_capacity_rows(SORTED.row_bytes) == 8
    oracle_ctx = ExecutionContext(params=params)
    expected = list(row_oracle.mrs_sort(rows, [0], [1], oracle_ctx,
                                        SORTED.row_bytes))
    plan = Sort(RowSource(SORTED, rows, SortOrder(["k1"])),
                SortOrder(["k1", "k2"]), known_prefix=SortOrder(["k1"]))
    assert plan.run(ctx) == expected
    assert ctx.tallies() == oracle_ctx.tallies()
    assert ctx.sort_metrics.segments_sorted == len(sizes) + 1
    assert ctx.sort_metrics.in_memory_sorts == len(sizes) + 1 - 2
    assert ctx.sort_metrics.runs_created > 2


# -- sort aggregate and combine ----------------------------------------------------------
AGGS = [agg_sum(col("v"), "s"), count(col("v"), "c"), count_star("n"),
        agg_min(col("v"), "lo"), agg_max(col("v"), "hi"), agg_avg(col("v"), "mean")]

#: Floats whose sum depends on the order of addition, ties between
#: 1 / 1.0 / True for min and max, NULLs for count.
AGG_VALUES = st.one_of(
    st.none(), st.sampled_from([1, 1.0, True, 0.1, 0.2, 0.3, 1e16, -1e16, 3]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


@given(groups=runs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_sort_aggregate_regions(groups, data):
    n = sum(size for _, size in groups)
    rows = rows_of(groups, data.draw(st.lists(AGG_VALUES, min_size=n, max_size=n)))
    order = SortOrder(["k1", "k2"])
    oracle_ctx = ExecutionContext()
    expected = list(row_oracle.sort_aggregate(
        rows, (0, 1), (0, 1), [spec.arg.compile(SORTED) for spec in AGGS],
        [spec.function for spec in AGGS], oracle_ctx))
    for batch_size in BATCH_SIZES:
        ctx = ExecutionContext(batch_size=batch_size, check_orders=True)
        plan = SortAggregate(RowSource(SORTED, rows, order), order, AGGS)
        same(plan.run(ctx), expected)
        assert ctx.tallies() == oracle_ctx.tallies(), batch_size


@given(groups=runs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_sorted_combine_regions(groups, data):
    """Partial rows (one per shard and group) folded by the combiners:
    a group's run is the shards it straddled."""
    specs = [s for s in AGGS if s.func in AGGREGATE_COMBINERS]
    n = sum(size for _, size in groups)
    partials = [respelled(key, i) + tuple(data.draw(AGG_VALUES) for _ in specs)
                for key, size in groups for i in range(size)]
    assert len(partials) == n
    order = SortOrder(["k1", "k2"])
    schema = SortAggregate(RowSource(SORTED, [], order), order, specs).schema
    oracle_ctx = ExecutionContext()
    expected = list(row_oracle.sort_aggregate(
        partials, (0, 1), (0, 1), [itemgetter(2 + j) for j in range(len(specs))],
        [AGGREGATES[AGGREGATE_COMBINERS[s.func]] for s in specs], oracle_ctx))
    for batch_size in BATCH_SIZES:
        ctx = ExecutionContext(batch_size=batch_size)
        plan = SortedGroupCombine(RowSource(schema, partials, order), order,
                                  ["k1", "k2"], specs)
        same(plan.run(ctx), expected)
        assert ctx.tallies() == oracle_ctx.tallies(), batch_size


def test_bulk_forms_are_the_step_fold():
    """``AggregateFunction.bulk`` on NULL-free values is ``final`` of the
    ``step`` fold: the same float additions in the same order, the first
    of tied minima and maxima."""
    values = [0.1, 0.2, 0.3, 1e16, 1, -1e16, 1.0, True, 0.7]
    for func in AGGREGATES.values():
        if func.bulk is None:
            assert func.name == "avg"
            continue
        for end in range(1, len(values) + 1):
            state = func.init()
            for value in values[:end]:
                state = func.step(state, value)
            assert repr(func.bulk(values[:end])) == repr(func.final(state))
    assert repr(AGGREGATES["min"].bulk([1.0, 1, True])) == "1.0"
    assert repr(AGGREGATES["max"].bulk([True, 1, 1.0])) == "True"
