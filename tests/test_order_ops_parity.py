"""The batch order-exploiting operators against the row-at-a-time oracle.

``tests/row_oracle.py`` holds the engine's former row paths (wrapped
keys, one step and one ``counter.add()`` per row).  Sort (SRS),
PartialSort (MRS), MergeJoin, SortAggregate and SortedCombine now work a
batch at a time on raw keys; this matrix asserts that rows, row order
and every tally are unchanged at every batch size — in particular for
spilling sorts and join groups that straddle batch boundaries, and for
NULL keys (the only case that builds wrapped keys).  The tallies the
oracle restates rather than counts are the sorts' and merges' rules
(``tests/test_closed_runs.py`` takes the same oracle to randomly drawn
batch edges).

The property tests at the bottom pin the key discipline itself.
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sort_order import SortOrder
from repro.engine import (
    AGGREGATE_COMBINERS,
    ExecutionContext,
    MergeJoin,
    Operator,
    RowBatch,
    RowSource,
    Sort,
    SortAggregate,
    SortedGroupCombine,
    batches_of,
    collect_rows,
    key_lt,
    null_safe_wrap,
)
from repro.engine.sorting import srs_sort
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
SCHEMA = Schema.of(("k1", "int", 8), ("k2", "int", 8), ("v", "int", 8))


def contexts(params: SystemParameters, batch_size: int, check_orders: bool):
    """(engine context, oracle context) over the same parameters."""
    return (ExecutionContext(params=params, batch_size=batch_size,
                             check_orders=check_orders),
            ExecutionContext(params=params))


def sorted_nulls_first(rows, positions):
    return sorted(rows, key=lambda r: null_safe_wrap(tuple(r[i] for i in positions)))


# -- SRS ---------------------------------------------------------------------------------
def unsorted_rows(n, seed, null_every=0, presorted=False):
    """*n* rows with duplicated two-column keys; every *null_every*-th
    row holds a NULL, in k1 and k2 by turns."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        k1, k2 = rng.randrange(25), rng.randrange(4)
        if null_every and i % null_every == 0:
            k1, k2 = (None, k2) if i % (2 * null_every) else (k1, None)
        rows.append((k1, k2, i))
    return sorted_nulls_first(rows, (0, 1)) if presorted else rows


SRS_CASES = {
    # 85 rows of sort memory: no run at all.
    "in_memory": (SystemParameters(block_size=256, sort_memory_blocks=8),
                  unsorted_rows(85, seed=1)),
    "in_memory_nulls": (SystemParameters(block_size=256, sort_memory_blocks=8),
                        unsorted_rows(60, seed=2, null_every=7)),
    # Presorted input: one giant run, written and read back.
    "one_run": (SystemParameters(block_size=256, sort_memory_blocks=8),
                unsorted_rows(300, seed=3, null_every=9, presorted=True)),
    # Fan-in 7 holds the runs of 600 rows: one merge pass.
    "many_runs": (SystemParameters(block_size=256, sort_memory_blocks=8),
                  unsorted_rows(600, seed=4)),
    "many_runs_nulls": (SystemParameters(block_size=256, sort_memory_blocks=8),
                        unsorted_rows(600, seed=5, null_every=11)),
    # Fan-in 2 with 32 rows of memory: intermediate merge passes.
    "multi_pass": (SystemParameters(block_size=256, sort_memory_blocks=3),
                   unsorted_rows(400, seed=6, null_every=13)),
    # The smallest sort memory there is: two rows.
    "capacity_2": (SystemParameters(block_size=24, sort_memory_blocks=2),
                   unsorted_rows(23, seed=7, null_every=4)),
}


@pytest.mark.parametrize("check_orders", [False, True])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("case", sorted(SRS_CASES))
def test_full_sort_matches_row_oracle(case, batch_size, check_orders):
    params, rows = SRS_CASES[case]
    ctx, oracle_ctx = contexts(params, batch_size, check_orders)
    plan = Sort(RowSource(SCHEMA, rows), SortOrder(["k1", "k2"]),
                algorithm="srs")
    expected = list(row_oracle.srs_sort(rows, [0, 1], oracle_ctx,
                                        SCHEMA.row_bytes))
    assert repr(plan.run(ctx)) == repr(expected)
    assert ctx.tallies() == oracle_ctx.tallies()
    metrics = ctx.sort_metrics
    if case.startswith("in_memory"):
        assert (metrics.runs_created, metrics.merge_passes) == (0, 0)
    elif case == "one_run":
        assert (metrics.runs_created, metrics.merge_passes) == (1, 1)
    elif case.startswith("many_runs"):
        assert 1 < metrics.runs_created <= 7 and metrics.merge_passes == 1
    else:
        assert metrics.merge_passes > 1
        assert metrics.rows_spilled > len(rows)


# -- MRS ---------------------------------------------------------------------------------
def segmented_rows(segment_sizes, seed, null_every=0):
    """Rows sorted on k1 with the given segment sizes; k1 of the first
    segment and every *null_every*-th k2 are NULL."""
    rng = random.Random(seed)
    rows, i = [], 0
    for seg, size in enumerate(segment_sizes):
        for _ in range(size):
            k2 = None if null_every and i % null_every == 0 else rng.randrange(40)
            rows.append((None if seg == 0 and null_every else seg, k2, i))
            i += 1
    return rows


MRS_CASES = {
    # 85 rows of sort memory: every segment fits.
    "in_memory": (SystemParameters(block_size=256, sort_memory_blocks=8),
                  segmented_rows([1, 5, 2, 13, 1, 1, 40, 7, 3], seed=1)),
    "in_memory_nulls": (SystemParameters(block_size=256, sort_memory_blocks=8),
                        segmented_rows([4, 5, 1, 13, 2, 30], seed=2, null_every=3)),
    # The 300-row segment spills three runs + a tail and crosses every
    # input batch boundary below 1024.
    "spilling_segment": (SystemParameters(block_size=256, sort_memory_blocks=8),
                         segmented_rows([3, 300, 2, 85, 170, 1], seed=3)),
    "spilling_nulls": (SystemParameters(block_size=256, sort_memory_blocks=8),
                       segmented_rows([90, 200, 4], seed=4, null_every=5)),
    # Fan-in 2 with 32 rows of memory: intermediate merge passes.
    "multi_pass": (SystemParameters(block_size=256, sort_memory_blocks=3),
                   segmented_rows([2, 300, 33, 1], seed=5)),
    # The smallest sort memory there is: two rows.
    "capacity_2": (SystemParameters(block_size=24, sort_memory_blocks=2),
                   segmented_rows([1, 2, 3, 9, 1, 4], seed=6, null_every=4)),
}


@pytest.mark.parametrize("check_orders", [False, True])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("case", sorted(MRS_CASES))
def test_partial_sort_matches_row_oracle(case, batch_size, check_orders):
    params, rows = MRS_CASES[case]
    ctx, oracle_ctx = contexts(params, batch_size, check_orders)
    if case == "capacity_2":
        assert ctx.memory_capacity_rows(SCHEMA.row_bytes) == 2
    prefix, target = SortOrder(["k1"]), SortOrder(["k1", "k2"])
    plan = Sort(RowSource(SCHEMA, rows, prefix), target, known_prefix=prefix,
                algorithm="mrs")
    expected = list(row_oracle.mrs_sort(rows, [0], [1], oracle_ctx,
                                        SCHEMA.row_bytes))
    assert plan.run(ctx) == expected
    assert ctx.tallies() == oracle_ctx.tallies()
    if case.startswith("spilling") or case in ("multi_pass", "capacity_2"):
        assert ctx.sort_metrics.runs_created > 0
    if case == "multi_pass":
        assert ctx.sort_metrics.merge_passes > ctx.sort_metrics.segments_sorted - 3


# -- merge join --------------------------------------------------------------------------
LEFT = Schema.of(("a", "int", 8), ("b", "int", 8), ("x", "int", 8))
RIGHT = Schema.of(("c", "int", 8), ("d", "int", 8), ("y", "int", 8))


def join_side(n, seed, tag):
    """Rows with heavily duplicated and NULL-bearing two-column keys."""
    rng = random.Random(seed)
    rows = [(rng.choice([None, 0, 1, 2, 3]), rng.choice([None, 0, 1]), tag + i)
            for i in range(n)]
    return sorted_nulls_first(rows, (0, 1))


JOIN_CASES = {
    "duplicates_and_nulls": (join_side(60, 11, 0), join_side(45, 12, 1000)),
    "left_runs_out_first": (join_side(12, 13, 0)[:5], join_side(40, 14, 1000)),
    "right_runs_out_first": (join_side(40, 15, 0), join_side(12, 16, 1000)[:5]),
    "one_group_each": ([(1, 1, i) for i in range(9)],
                       [(1, 1, 1000 + i) for i in range(8)]),
    "empty_left": ([], join_side(10, 17, 1000)),
}


@pytest.mark.parametrize("check_orders", [False, True])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("join_type", ["inner", "left", "full"])
@pytest.mark.parametrize("case", sorted(JOIN_CASES))
def test_merge_join_matches_row_oracle(case, join_type, batch_size, check_orders):
    lrows, rrows = JOIN_CASES[case]
    ctx, oracle_ctx = contexts(SystemParameters(), batch_size, check_orders)
    plan = MergeJoin(RowSource(LEFT, lrows, SortOrder(["a", "b"])),
                     RowSource(RIGHT, rrows, SortOrder(["c", "d"])),
                     JoinPredicate([("a", "c"), ("b", "d")]), join_type)
    expected = list(row_oracle.merge_join(lrows, rrows, (0, 1), (0, 1), 3, 3,
                                          join_type, oracle_ctx))
    assert plan.run(ctx) == expected
    assert ctx.tallies() == oracle_ctx.tallies()


# -- sort aggregate and combine ----------------------------------------------------------
AGGS = [agg_sum(col("v"), "s"), count(col("v"), "c"), count_star("n"),
        agg_min(col("v"), "lo"), agg_max(col("v"), "hi"), agg_avg(col("v"), "mean")]


def grouped_rows(seed):
    """Rows grouped on (k1, k2) with NULL keys and NULL aggregate inputs
    (one group is all-NULL, so sum/min/max/avg finish NULL)."""
    rng = random.Random(seed)
    rows = [(rng.choice([None, 0, 1, 2]), rng.choice([None, 0, 1]),
             rng.choice([None, 1, 2, 3, 5, 8])) for _ in range(120)]
    rows += [(3, 0, None)] * 4
    return sorted_nulls_first(rows, (0, 1))


class ColumnBacked(Operator):
    """Re-emits its child's batches column-backed, as a kernel-bearing
    operator below would hand them over."""

    def __init__(self, child):
        super().__init__(child.schema, child.output_order, [child])

    def execute_batches(self, ctx):
        for batch in self.children[0].execute_batches(ctx):
            yield RowBatch.from_columns(batch.columns, len(batch))


@pytest.mark.parametrize("check_orders", [False, True])
@pytest.mark.parametrize("columnar", [True, False])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_sort_aggregate_matches_row_oracle(batch_size, columnar, check_orders):
    """Both evaluators of the aggregate inputs, selected the way the
    engine selects them: column-backed batches take the kernels at every
    size, row-backed ones the row functions under COLUMNAR_MIN_ROWS."""
    rows = grouped_rows(21)
    order = SortOrder(["k1", "k2"])
    ctx, oracle_ctx = contexts(SystemParameters(), batch_size, check_orders)
    source = RowSource(SCHEMA, rows, order)
    plan = SortAggregate(ColumnBacked(source) if columnar else source,
                         order, AGGS)
    expected = list(row_oracle.sort_aggregate(
        rows, (0, 1), (0, 1), [spec.arg.compile(SCHEMA) for spec in AGGS],
        [spec.function for spec in AGGS], oracle_ctx))
    assert plan.run(ctx) == expected
    assert ctx.tallies() == oracle_ctx.tallies()
    assert (3, 0, None, 0, 4, None, None, None) in expected


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_sorted_combine_matches_row_oracle(batch_size):
    """Per-shard partials (one aggregate output row per shard and group)
    folded by the combiner, against the same row fold."""
    order = SortOrder(["k1", "k2"])
    specs = [s for s in AGGS if s.func in AGGREGATE_COMBINERS]
    rows = grouped_rows(22)
    partials = []
    for shard in (rows[0::3], rows[1::3], rows[2::3]):
        partials += SortAggregate(RowSource(SCHEMA, shard, order), order,
                                  specs).run()
    partials = sorted_nulls_first(partials, (0, 1))
    schema = SortAggregate(RowSource(SCHEMA, [], order), order, specs).schema
    ctx, oracle_ctx = contexts(SystemParameters(), batch_size, False)
    plan = SortedGroupCombine(RowSource(schema, partials, order), order,
                              ["k1", "k2"], specs)
    expected = list(row_oracle.sort_aggregate(
        partials, (0, 1), (0, 1), [itemgetter(2 + j) for j in range(len(specs))],
        [AGGREGATES[AGGREGATE_COMBINERS[s.func]] for s in specs], oracle_ctx))
    assert plan.run(ctx) == expected
    assert ctx.tallies() == oracle_ctx.tallies()
    assert expected == SortAggregate(RowSource(SCHEMA, rows, order), order,
                                     specs).run()


# -- the key discipline ------------------------------------------------------------------
def key_tuples(width=3):
    """Key tuples whose column *i* holds NULLs and ints (even *i*) or
    NULLs and strings (odd *i*) — never ints against strings."""
    columns = [st.one_of(st.none(), st.integers(-3, 3)) if i % 2 == 0
               else st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab"]))
               for i in range(width)]
    return st.tuples(*columns)


class TestKeyDiscipline:
    @given(key_tuples(), key_tuples())
    @settings(max_examples=300, deadline=None)
    def test_key_lt_is_the_wrapped_order(self, a, b):
        assert key_lt(a, b) == (null_safe_wrap(a) < null_safe_wrap(b))
        assert (a == b) == (null_safe_wrap(a) == null_safe_wrap(b))

    @given(st.lists(key_tuples(2), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_counted_raw_sort_equals_wrapped_sort(self, keys):
        """SRS on raw keys returns the rows, the row order and the
        ``tallies()`` of SRS on the same keys wrapped up front — NULLs in
        any key position, in memory and spilled (four rows of sort
        memory, fan-in 2: many runs, intermediate merge passes), wherever
        in the selection the first NULL meets a value."""
        rows = [key + (i,) for i, key in enumerate(keys)]
        wrapped = [null_safe_wrap(key) + (i,) for i, key in enumerate(keys)]
        for params in (SystemParameters(),
                       SystemParameters(block_size=48, sort_memory_blocks=2)):
            ctx = ExecutionContext(params=params, batch_size=7)
            by_raw = collect_rows(srs_sort(batches_of(rows, 7), (0, 1), ctx,
                                           row_bytes=24))
            assert by_raw == sorted(rows, key=lambda r: null_safe_wrap(r[:2]))
            wrapped_ctx = ExecutionContext(params=params, batch_size=7)
            by_wrapped = collect_rows(srs_sort(
                batches_of(wrapped, 7), (0, 1), wrapped_ctx, row_bytes=24))
            assert [r[2] for r in by_raw] == [r[2] for r in by_wrapped]
            assert ctx.tallies() == wrapped_ctx.tallies()

    @pytest.mark.parametrize("rows", [
        # The first memory load sets the NULL against a value: ``heapify``.
        [(None, 0), (3, 0), (4, 0), (5, 0), (1, 1), (2, 2)],
        # The replacing row is a NULL, tested against the row it replaces.
        [(1, 0), (3, 0), (4, 0), (5, 0), (None, 1), (2, 2)],
        # The replacement test passes, the heap step behind it raises.
        [(1, 0), (2, 0), (3, 0), (5, None), (5, 2), (6, 0), (5, 1)],
        # No step raises; only the final drain compares the two.
        [(1, 0), (2, 0), (5, None), (5, 2), (9, 9)],
    ], ids=["heapify", "replacement_test", "heap_step", "drain"])
    def test_a_null_met_mid_selection_loses_no_row(self, rows):
        """Four rows of sort memory; each case meets its first
        NULL-against-value comparison at a different point of the
        replacement selection."""
        rows = [key + (i,) for i, key in enumerate(rows)]
        params = SystemParameters(block_size=48, sort_memory_blocks=2)
        ctx = ExecutionContext(params=params)
        assert ctx.memory_capacity_rows(24) == 4
        out = collect_rows(srs_sort(batches_of(rows, 3), (0, 1), ctx,
                                    row_bytes=24))
        assert out == sorted(rows, key=lambda r: null_safe_wrap(r[:2]))
        with pytest.raises(TypeError):
            sorted(rows)
        oracle_ctx = ExecutionContext(params=params)
        assert out == list(row_oracle.srs_sort(rows, (0, 1), oracle_ctx, 24))
        assert ctx.tallies() == oracle_ctx.tallies()
