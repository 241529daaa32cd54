"""Batch edges of the closed-run steps and the aggregate kernels, against
the row-at-a-time oracle.

PartialSort and MergeJoin handle every run (segment, group) that closes
inside the current batch in one step and carry only the run left open
at the batch's end; SortAggregate/SortedCombine carry their open group
between calls of one generated kernel, and HashAggregate its group
table.  Where a batch ends is therefore the whole risk: these
properties draw the runs — from
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
from hypothesis import example, given, settings, strategies as st

from repro.core.sort_order import SortOrder
from repro.engine import (
    AGGREGATE_COMBINERS,
    ExecutionContext,
    HashAggregate,
    MergeJoin,
    RowSource,
    Sort,
    SortAggregate,
    SortedGroupCombine,
    null_safe_wrap,
)
from repro.engine.kernels import HASH_AGGREGATE, SORT_AGGREGATE, compile_kernel
from repro.expr import col, param
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
        plan = MergeJoin(RowSource(LEFT, lrows),
                         RowSource(RIGHT, rrows),
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
            plan = MergeJoin(RowSource(LEFT, lrows),
                             RowSource(RIGHT, rrows),
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
        plan = Sort(RowSource(SORTED, rows), target, known_prefix=prefix)
        same(plan.run(ctx), expected)
        assert ctx.tallies() == oracle_ctx.tallies(), batch_size


WIDE = Schema.of(("k1", "int", 8), ("k2", "int", 8), ("k3", "int", 8),
                 ("v", "int", 8))

#: Two and eight rows of sort memory for WIDE's 32-byte rows.
WIDE_SORT_MEMORY = st.sampled_from([
    SystemParameters(block_size=32, sort_memory_blocks=2),
    SystemParameters(block_size=128, sort_memory_blocks=2)])

#: The first suffix column: no NULL, and few values, so it ties often.
TIED_VALUES = st.sampled_from([0, 1, 1.0, True, 2])


@st.composite
def two_column_segments(draw):
    """Rows sorted on k1 (one segment per distinct value, NULL first),
    with (k2, k3) left to sort.  k2 is never NULL and k3 often is: a raw
    suffix tuple compare raises only where k2 ties.  One segment has
    9-22 rows, so it spills at eight rows of sort memory (and at two)
    between in-memory neighbours of the same batch."""
    prefixes = sorted(draw(st.sets(st.one_of(st.none(), st.integers(0, 30)),
                                   min_size=1, max_size=12)),
                      key=lambda v: null_safe_wrap((v,)))
    spilling = draw(st.sampled_from(prefixes))
    rows = []
    for prefix in prefixes:
        size = draw(st.integers(9, 22) if prefix == spilling else RUN_SIZES)
        for _ in range(size):
            rows.append((prefix, draw(TIED_VALUES), draw(KEY_VALUES), len(rows)))
    return rows


@given(rows=two_column_segments(), params=WIDE_SORT_MEMORY)
@example(rows=[(0, 1, None, 0), (0, 1, 2, 1), (0, 0, 3, 2)]
         + [(1, 1, (None, 5)[i % 2], 3 + i) for i in range(12)]
         + [(2, 2, 1, 15), (2, 2, None, 16), (3, 0, 0, 17)],
         params=SystemParameters(block_size=128, sort_memory_blocks=2))
@settings(max_examples=120, deadline=None)
def test_partial_sort_two_column_suffix_regions(rows, params):
    """A NULL behind a tie in the first suffix column makes the raw sort
    of its segment raise part way; that segment, and only it, is redone
    on wrapped keys from its input order.  Rows, tallies and the two
    segment counters are the row oracle's at every batch size."""
    prefix, target = SortOrder(["k1"]), SortOrder(["k1", "k2", "k3"])
    oracle_ctx = ExecutionContext(params=params)
    expected = list(row_oracle.mrs_sort(rows, [0], [1, 2], oracle_ctx,
                                        WIDE.row_bytes))
    assert oracle_ctx.sort_metrics.runs_created > 0
    for batch_size in BATCH_SIZES:
        ctx = ExecutionContext(params=params, batch_size=batch_size,
                               check_orders=True)
        plan = Sort(RowSource(WIDE, rows), target, known_prefix=prefix)
        same(plan.run(ctx), expected)
        assert ctx.tallies() == oracle_ctx.tallies(), batch_size
        for counter in ("segments_sorted", "in_memory_sorts"):
            assert (getattr(ctx.sort_metrics, counter)
                    == getattr(oracle_ctx.sort_metrics, counter)), (counter,
                                                                    batch_size)


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
    plan = Sort(RowSource(SORTED, rows),
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
        rows, (0, 1), (0, 1), [row_oracle.evaluate(spec.arg, SORTED) for spec in AGGS],
        [spec.function for spec in AGGS], oracle_ctx))
    for batch_size in BATCH_SIZES:
        ctx = ExecutionContext(batch_size=batch_size, check_orders=True)
        plan = SortAggregate(RowSource(SORTED, rows), order, AGGS)
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
    schema = SortAggregate(RowSource(SORTED, []), order, specs).schema
    oracle_ctx = ExecutionContext()
    expected = list(row_oracle.sort_aggregate(
        partials, (0, 1), (0, 1), [itemgetter(2 + j) for j in range(len(specs))],
        [AGGREGATES[AGGREGATE_COMBINERS[s.func]] for s in specs], oracle_ctx))
    for batch_size in BATCH_SIZES:
        ctx = ExecutionContext(batch_size=batch_size)
        plan = SortedGroupCombine(RowSource(schema, partials), order,
                                  ["k1", "k2"], specs)
        same(plan.run(ctx), expected)
        assert ctx.tallies() == oracle_ctx.tallies(), batch_size


VALUES = Schema.of(("v", "float", 8))


def _kernel_rows(shape, names, values, split):
    """The one output row of the *shape* kernel, with no group columns,
    over *values* fed as three batches: ``values[:split]``, none, and
    the rest."""
    aggregates = tuple((name, col("v")) for name in names)
    if shape == HASH_AGGREGATE:
        spec, state = ((), aggregates), {}
    else:
        spec, state = ((), (), aggregates), []
    kernel = compile_kernel(shape, spec, VALUES)
    rows = [(v,) for v in values]
    for batch in (rows[:split], [], rows[split:]):
        kernel(batch, {}, state)
    (row,) = kernel(None, {}, state)
    return row


def test_bulk_forms_are_the_step_fold():
    """Both aggregate kernel shapes, the bulk form of every function, on
    NULL-free values split across batches anywhere (an empty batch
    between) return ``final`` of the ``step`` fold: the same float
    additions in the same order, the first of tied minima and maxima,
    and ``final(init())`` over no values."""
    names = list(AGGREGATES)
    for values in ([0.1, 0.2, 0.3, 1e16, 1, -1e16, 1.0, True, 0.7],
                   [1.0, 1, True, 1, 1.0]):
        for end in range(len(values) + 1):
            expected = []
            for func in AGGREGATES.values():
                state = func.init()
                for value in values[:end]:
                    state = func.step(state, value)
                expected.append(func.final(state))
            for shape in (HASH_AGGREGATE, SORT_AGGREGATE):
                for split in range(end + 1):
                    got = _kernel_rows(shape, names, values[:end], split)
                    assert repr(got) == repr(tuple(expected)), (shape, end, split)
    for shape in (HASH_AGGREGATE, SORT_AGGREGATE):
        assert repr(_kernel_rows(shape, ["min"], [1.0, 1, True], 1)) == "(1.0,)"
        assert repr(_kernel_rows(shape, ["max"], [True, 1, 1.0], 1)) == "(True,)"


# -- hash aggregate ----------------------------------------------------------------------
@given(groups=runs(), data=st.data(), params=SORT_MEMORY)
@settings(max_examples=100, deadline=None)
def test_hash_aggregate_regions(groups, data, params):
    """One kernel call per batch folds every row into the group table (at
    batch size 1 a call per row): in drawn order, shuffled, and the
    drawn order twice over (every run of the second pass meets a group
    already open), rows, first-seen emission order and tallies are the
    per-row dict fold's."""
    n = sum(size for _, size in groups)
    rows = rows_of(groups, data.draw(st.lists(AGG_VALUES, min_size=n, max_size=n)))
    arg_fns = [row_oracle.evaluate(spec.arg, SORTED) for spec in AGGS]
    funcs = [spec.function for spec in AGGS]
    for order in (rows, data.draw(st.permutations(rows)), rows + rows):
        plan = HashAggregate(RowSource(SORTED, order), ["k1", "k2"], AGGS)
        oracle_ctx = ExecutionContext(params=params)
        expected = list(row_oracle.hash_aggregate(
            order, (0, 1), arg_fns, funcs, oracle_ctx, plan.schema.row_bytes))
        for batch_size in BATCH_SIZES:
            ctx = ExecutionContext(params=params, batch_size=batch_size)
            same(plan.run(ctx), expected)
            assert ctx.tallies() == oracle_ctx.tallies(), batch_size


# -- aggregate kernels -------------------------------------------------------------------
#: Every function on the bare column, and two arguments through a
#: parameter (``None`` among its values makes every argument NULL).
KERNEL_AGGS = AGGS + [agg_sum(col("v") + param("x"), "sx"),
                      agg_max(col("v") * param("x"), "mx")]
#: (group order, group columns): two key columns, one (a bare-value key),
#: a head wider than the key, and none (one group, a row even over no
#: input).
GROUPINGS = [(("k1", "k2"), ("k1", "k2")), (("k1",), ("k1",)),
             (("k1",), ("k2", "k1")), ((), ())]


@pytest.mark.parametrize("shape", [HASH_AGGREGATE, SORT_AGGREGATE])
@given(groups=runs(), data=st.data(), grouping=st.sampled_from(GROUPINGS),
       x=st.sampled_from([None, 0, 1, 1.0, True, 0.5]), params=SORT_MEMORY)
@settings(max_examples=100, deadline=None)
def test_aggregate_kernels_match_row_oracle(shape, groups, data, grouping, x,
                                            params):
    """Both kernel shapes and all six functions against ``init``/``step``
    /``final`` row by row: NULL arguments, ``1``/``1.0``/``True`` keys
    under the spelling of their first row, float sums whose value
    depends on the order of addition, tied minima and maxima, a
    parameter inside an argument, and batch sizes 1, 2, 7 and 1024.
    Rows (by ``repr``), group order and tallies are the oracle's.  The
    sort shape reads the drawn (grouped) order; the hash shape reads it,
    shuffled, and twice over, where every row of the second pass meets a
    group already open."""
    order, columns = grouping
    n = sum(size for _, size in groups)
    rows = rows_of(groups, data.draw(st.lists(AGG_VALUES, min_size=n, max_size=n)))
    binds = {"x": x}
    arg_fns = [row_oracle.evaluate(spec.arg, SORTED, binds) for spec in KERNEL_AGGS]
    funcs = [spec.function for spec in KERNEL_AGGS]
    if shape == SORT_AGGREGATE:
        inputs = [rows]
    else:
        inputs = [rows, data.draw(st.permutations(rows)), rows + rows]
    for drawn in inputs:
        source = RowSource(SORTED, drawn)
        oracle_ctx = ExecutionContext(params=params)
        if shape == SORT_AGGREGATE:
            plan = SortAggregate(source, SortOrder(list(order)), KERNEL_AGGS,
                                 list(columns))
            expected = list(row_oracle.sort_aggregate(
                drawn, SORTED.positions(list(order)),
                SORTED.positions(list(columns)), arg_fns, funcs, oracle_ctx))
        else:
            plan = HashAggregate(source, list(columns), KERNEL_AGGS)
            expected = list(row_oracle.hash_aggregate(
                drawn, SORTED.positions(list(columns)), arg_fns, funcs,
                oracle_ctx, plan.schema.row_bytes))
        if not columns:
            assert len(expected) == 1
        for batch_size in (1, 2, 7, 1024):
            ctx = ExecutionContext(params=params, batch_size=batch_size,
                                   check_orders=True)
            ctx.binds = binds
            same(plan.run(ctx), expected)
            assert ctx.tallies() == oracle_ctx.tallies(), batch_size
