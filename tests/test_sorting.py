"""Tests for the external sort: SRS, MRS, spill behaviour, metrics.

These cover the claims of paper Section 3.1: identical output, zero run
I/O for MRS when segments fit, early output, fewer comparisons, and the
graceful degradation when a segment outgrows memory.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.sort_order import SortOrder, null_safe_wrap, sorted_nulls_first
from repro.engine import ExecutionContext
from repro.storage import Catalog, Schema, SystemParameters
from tests.conftest import sort_rows

SCHEMA = Schema.of(("k1", "int", 8), ("k2", "int", 8), ("v", "int", 8))


def ctx_with(block_size=256, memory_blocks=8) -> ExecutionContext:
    return ExecutionContext(params=SystemParameters(
        block_size=block_size, sort_memory_blocks=memory_blocks))


def presorted_rows(n, segments, seed=5):
    rng = random.Random(seed)
    rows = [(i % segments, rng.randrange(1000), i) for i in range(n)]
    rows.sort(key=lambda r: r[0])
    return rows


class TestSrs:
    def test_sorts_correctly_in_memory(self):
        rng = random.Random(1)
        rows = [(rng.randrange(50), rng.randrange(50), i) for i in range(500)]
        ctx = ExecutionContext()
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx))
        assert [r[:2] for r in out] == sorted(r[:2] for r in rows)

    def test_in_memory_no_io(self):
        rows = [(i % 5, i, i) for i in range(100)]
        ctx = ctx_with(memory_blocks=1000)
        list(sort_rows(rows, SCHEMA, SortOrder(["k2"]), ctx))
        assert ctx.io.total_blocks == 0
        assert ctx.sort_metrics.in_memory_sorts == 1

    def test_spill_and_merge(self):
        rng = random.Random(2)
        rows = [(rng.randrange(1000), 0, i) for i in range(2000)]
        ctx = ctx_with(block_size=256, memory_blocks=4)
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1"]), ctx))
        assert [r[0] for r in out] == sorted(r[0] for r in rows)
        assert ctx.io.blocks_written > 0
        assert ctx.io.blocks_read > 0
        assert ctx.sort_metrics.runs_created >= 2

    def test_run_count_doubles_memory_on_random_input(self):
        # Replacement selection produces runs of ~2× memory on random input.
        rng = random.Random(3)
        n = 4000
        rows = [(rng.randrange(10**6), 0, i) for i in range(n)]
        ctx = ctx_with(block_size=240, memory_blocks=10)  # 100 rows of memory
        list(sort_rows(rows, SCHEMA, SortOrder(["k1"]), ctx))
        capacity = ctx.memory_capacity_rows(SCHEMA.row_bytes)
        naive_runs = n / capacity
        assert ctx.sort_metrics.runs_created < naive_runs * 0.8

    def test_presorted_input_single_run_still_does_io(self):
        """The paper's critique: SRS on presorted input writes one giant
        run and reads it back."""
        rows = [(i, 0, i) for i in range(2000)]
        ctx = ctx_with(block_size=256, memory_blocks=4)
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx))
        assert [r[0] for r in out] == list(range(2000))
        assert ctx.sort_metrics.runs_created == 1
        assert ctx.io.blocks_written > 0   # the pipeline-breaking run I/O

    def test_multi_pass_merge(self):
        rng = random.Random(4)
        rows = [(rng.randrange(10**6), 0, i) for i in range(3000)]
        ctx = ctx_with(block_size=256, memory_blocks=3)  # fan-in 2
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1"]), ctx))
        assert [r[0] for r in out] == sorted(r[0] for r in rows)
        assert ctx.sort_metrics.merge_passes >= 2

    @pytest.mark.parametrize("memory_blocks", [1000, 4],
                             ids=["in_memory", "spilling"])
    def test_tallies_independent_of_batch_size(self, memory_blocks):
        rng = random.Random(6)
        rows = [(rng.randrange(40), rng.randrange(40), i) for i in range(1500)]
        seen = set()
        for batch_size in (1, 3, 64, 1024):
            ctx = ExecutionContext(
                params=SystemParameters(block_size=256,
                                        sort_memory_blocks=memory_blocks),
                batch_size=batch_size)
            out = list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx))
            assert out == sorted(rows, key=lambda r: r[:2])  # stable
            assert (ctx.sort_metrics.runs_created > 0) == (memory_blocks == 4)
            seen.add(repr(ctx.tallies()))
        assert len(seen) == 1

    def test_tally_is_the_selection_tree_rule(self):
        """What SRS charges is a rule of the algorithm, not what a Python
        container happens to compare: a row leaving a selection tree of
        ``P = min(N, capacity)`` rows costs ``ceil(log2 P)``, a row
        replacing it one test, a run merge ``ceil(log2 runs)`` per row."""
        rng = random.Random(8)
        rows = [(rng.randrange(30), rng.randrange(30), i) for i in range(200)]
        target = SortOrder(["k1", "k2"])
        # In memory, P = N: n * ceil(log2 n), presorted or not.
        for case in (rows, sorted(rows)):
            ctx = ExecutionContext()
            list(sort_rows(case, SCHEMA, target, ctx))
            assert ctx.comparisons.value == 200 * 8
        # The smallest cases by hand.
        for n, expected in ((0, 0), (1, 0), (2, 2), (3, 6)):
            ctx = ExecutionContext()
            out = list(sort_rows([(n - i, 0, i) for i in range(n)], SCHEMA,
                                 SortOrder(["k1"]), ctx))
            assert [r[0] for r in out] == list(range(1, n + 1))
            assert ctx.comparisons.value == expected
        # Spilled: 85 rows of sort memory, 500 rows, one merge pass.
        rows = [(rng.randrange(10**6), 0, i) for i in range(500)]
        ctx = ctx_with(block_size=256, memory_blocks=8)
        assert ctx.memory_capacity_rows(SCHEMA.row_bytes) == 85
        out = list(sort_rows(rows, SCHEMA, target, ctx))
        assert out == sorted(rows)
        runs = ctx.sort_metrics.runs_created
        assert 1 < runs <= 7 and ctx.sort_metrics.merge_passes == 1
        assert ctx.comparisons.value == \
            500 * 7 + (500 - 85) + 500 * (runs - 1).bit_length()


class TestMrs:
    def test_matches_srs_output(self):
        rows = presorted_rows(1000, segments=20)
        target = SortOrder(["k1", "k2"])
        ctx1, ctx2 = ExecutionContext(), ExecutionContext()
        srs = list(sort_rows(rows, SCHEMA, target, ctx1))
        mrs = list(sort_rows(rows, SCHEMA, target, ctx2,
                             known_prefix=SortOrder(["k1"])))
        assert [r[:2] for r in srs] == [r[:2] for r in mrs]

    def test_zero_io_when_segments_fit(self):
        rows = presorted_rows(2000, segments=50)
        ctx = ctx_with(block_size=256, memory_blocks=8)  # 85 rows memory, 40-row segments
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx,
                             known_prefix=SortOrder(["k1"])))
        assert [r[:2] for r in out] == sorted(r[:2] for r in rows)
        assert ctx.io.total_blocks == 0
        assert ctx.sort_metrics.segments_sorted == 50

    def test_fewer_comparisons_than_srs(self):
        rows = presorted_rows(3000, segments=30)
        target = SortOrder(["k1", "k2"])
        ctx_srs, ctx_mrs = ExecutionContext(), ExecutionContext()
        list(sort_rows(rows, SCHEMA, target, ctx_srs))
        list(sort_rows(rows, SCHEMA, target, ctx_mrs,
                       known_prefix=SortOrder(["k1"])))
        # Both by the same rule, n * ceil(log2 n) per sort unit, so the gap
        # is the paper's O(n log n) against O(n log(n/k)) and nothing else:
        # one unit of 3000 rows at ceil(log2 3000) = 12, against 3000
        # boundary tests + 30 segments of 100 rows at ceil(log2 100) = 7.
        assert ctx_srs.comparisons.value == 3000 * 12
        assert ctx_mrs.comparisons.value == 3000 + 3000 * 7

    def test_early_output(self):
        """MRS must emit the first segment before consuming all input: at
        the batch contract's granularity, the first output needs at most
        one segment plus one input batch (the batch that closes it)."""
        consumed = [0]
        batch_size, segment_rows = 16, 100

        def tracked():
            rows = presorted_rows(1000, segments=1000 // segment_rows)
            for row in rows:
                consumed[0] += 1
                yield row

        ctx = ExecutionContext(batch_size=batch_size)
        stream = sort_rows(tracked(), SCHEMA, SortOrder(["k1", "k2"]), ctx,
                           known_prefix=SortOrder(["k1"]))
        first = next(iter(stream))
        assert first[0] == 0
        assert segment_rows < consumed[0] <= segment_rows + batch_size

    def test_limit_over_partial_sort_stops_pulling_child_batches(self):
        """Operator-level early output: ``Limit(Sort(TableScan))``, the sort partial
        pulls no more child batches than the first closed segment needs —
        the segment's own batches plus the one that closes it."""
        from repro.engine import Limit, Sort, TableScan

        batch_size, segment_rows = 16, 100
        cat = Catalog()
        cat.create_table("t", SCHEMA, rows=presorted_rows(
            1000, segments=1000 // segment_rows),
            clustering_order=SortOrder(["k1"]))
        pulled = [0]

        class CountingScan(TableScan):
            def execute_batches(self, ctx):
                for batch in super().execute_batches(ctx):
                    pulled[0] += 1
                    yield batch

        plan = Limit(Sort(CountingScan(cat.table("t")), SortOrder(["k1", "k2"]),
                          known_prefix=SortOrder(["k1"])), 5)
        ctx = ExecutionContext(cat, batch_size=batch_size)
        rows = plan.run(ctx)
        assert [r[0] for r in rows] == [0] * 5
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)
        # ceil(100 / 16) batches hold the segment; the last of them also
        # holds the first row of the next segment, which closes it.
        assert pulled[0] == -(-(segment_rows + 1) // batch_size)
        assert ctx.sort_metrics.segments_sorted == 1

    def test_oversized_segment_spills_per_segment(self):
        rows = presorted_rows(2000, segments=2)  # 1000-row segments
        ctx = ctx_with(block_size=256, memory_blocks=8)  # ~85 rows of memory
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx,
                             known_prefix=SortOrder(["k1"])))
        assert [r[:2] for r in out] == sorted(r[:2] for r in rows)
        assert ctx.io.blocks_written > 0
        assert ctx.sort_metrics.segments_sorted == 2

    def test_single_value_segment_degenerates_to_full_sort(self):
        rows = [(7, v, i) for i, v in enumerate(
            random.Random(6).sample(range(10_000), 1500))]
        ctx_mrs = ctx_with(block_size=256, memory_blocks=4)
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx_mrs,
                             known_prefix=SortOrder(["k1"])))
        assert [r[1] for r in out] == sorted(r[1] for r in rows)
        ctx_srs = ctx_with(block_size=256, memory_blocks=4)
        list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx_srs))
        # Same order of magnitude of I/O: MRS has no advantage left.
        assert ctx_mrs.io.total_blocks >= ctx_srs.io.total_blocks * 0.5

    def test_fully_sorted_prefix_is_noop(self):
        rows = presorted_rows(100, segments=100)
        ctx = ExecutionContext()
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1"]), ctx,
                             known_prefix=SortOrder(["k1"])))
        assert out == rows
        assert ctx.comparisons.value == 0


class TestDispatch:
    def test_prefix_must_prefix_target(self):
        with pytest.raises(ValueError):
            list(sort_rows([], SCHEMA, SortOrder(["k1"]), ExecutionContext(),
                           known_prefix=SortOrder(["k2"])))

    def test_empty_input(self):
        ctx = ExecutionContext()
        assert list(sort_rows([], SCHEMA, SortOrder(["k1"]), ctx)) == []

    def test_auto_uses_mrs_with_prefix(self):
        rows = presorted_rows(300, segments=10)
        ctx = ExecutionContext()
        list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx,
                       known_prefix=SortOrder(["k1"])))
        assert ctx.sort_metrics.segments_sorted == 10


@st.composite
def rows_and_keys(draw):
    n_cols = 3
    n_rows = draw(st.integers(0, 120))
    rows = [tuple(draw(st.integers(0, 8)) for _ in range(n_cols))
            for _ in range(n_rows)]
    key_len = draw(st.integers(1, n_cols))
    key_cols = draw(st.permutations(["k1", "k2", "v"]))[:key_len]
    prefix_len = draw(st.integers(0, key_len - 1))
    return rows, list(key_cols), prefix_len


class TestPropertyBased:
    @given(rows_and_keys())
    @settings(max_examples=120, deadline=None)
    def test_sort_equals_python_sorted(self, case):
        rows, key_cols, prefix_len = case
        positions = [SCHEMA.position(c) for c in key_cols]
        prefix_positions = positions[:prefix_len]
        rows = sorted(rows, key=lambda r: tuple(r[i] for i in prefix_positions))
        ctx = ctx_with(block_size=64, memory_blocks=4)  # force spills
        out = list(sort_rows(rows, SCHEMA, SortOrder(key_cols), ctx,
                             known_prefix=SortOrder(key_cols[:prefix_len])))
        expected = sorted(rows, key=lambda r: tuple(r[i] for i in positions))
        assert [tuple(r[i] for i in positions) for r in out] == \
               [tuple(r[i] for i in positions) for r in expected]
        assert sorted(out) == sorted(rows)  # it is a permutation of the input

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1000),
                              st.integers()), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_mrs_srs_agree(self, rows):
        rows = sorted(rows, key=lambda r: r[0])
        target = SortOrder(["k1", "k2"])
        srs = list(sort_rows(rows, SCHEMA, target,
                             ctx_with(block_size=64, memory_blocks=4)))
        mrs = list(sort_rows(rows, SCHEMA, target,
                             ctx_with(block_size=64, memory_blocks=4),
                             known_prefix=SortOrder(["k1"])))
        assert [r[:2] for r in srs] == [r[:2] for r in mrs]

    @given(st.lists(st.tuples(st.integers(0, 3), st.one_of(st.none(),
                                                           st.integers(0, 9)),
                              st.integers()), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_null_keys_sort_first(self, rows):
        rows = sorted(rows, key=lambda r: r[0])
        ctx = ExecutionContext()
        out = list(sort_rows(rows, SCHEMA, SortOrder(["k1", "k2"]), ctx,
                             known_prefix=SortOrder(["k1"])))
        for (a1, b1, _), (a2, b2, _) in zip(out, out[1:]):
            if a1 == a2:
                k1 = (b1 is not None, b1 if b1 is not None else 0)
                k2 = (b2 is not None, b2 if b2 is not None else 0)
                assert k1 <= k2


NAN = float("nan")
#: Key values that compare across types: NULL, and 1 == 1.0 == True.
VALUES = (None, -1, 0, 1, 1.0, True, 2, 2.5)


@st.composite
def sort_inputs(draw):
    """Rows ``(lead, b, c, i)`` and key positions led by column 0.

    The lead is drawn from ``VALUES``, from one reused ``float('nan')``
    object and NULL, as one value for every row, or distinct; ``b`` and
    ``c`` from ``VALUES``.  ``i`` is the row's input position, in no
    key: rows with equal keys differ only there, which shows stability.
    A NaN is never drawn beside a number in one column — NaN is neither
    less than, equal to nor greater than a number, so such a column has
    no sorted order for any routine to reproduce.
    """
    n = draw(st.integers(0, 60))
    mode = draw(st.sampled_from(["values", "nan", "equal", "distinct"]))
    if mode == "values":
        leads = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    elif mode == "nan":
        leads = draw(st.lists(st.sampled_from((NAN, None)), min_size=n, max_size=n))
    elif mode == "equal":
        leads = [draw(st.sampled_from(VALUES + (NAN,)))] * n
    else:
        leads = draw(st.permutations(range(n)))
    ties = st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)
    rows = list(zip(leads, draw(ties), draw(ties), range(n)))
    rest = draw(st.permutations((1, 2)))[:draw(st.integers(0, 2))]
    return rows, (0, *rest), draw(st.booleans())


class TestInMemorySort:
    """``sorted_nulls_first``, the one in-memory full sort (SRS input
    that fits, MRS memory loads, table clustering, covering-index
    images): a sort on the leading column, then its runs of equal leads
    sorted on the rest."""

    @given(sort_inputs())
    @example(([], (0, 1), False))
    @example(([(1, 2, 0, 0)], (0, 1), True))
    @example(([(1, 2, 0, 0), (1.0, None, 0, 1)], (0, 1), False))
    @example(([(2, 0, 0, 0), (None, 1, 0, 1)], (0,), True))
    @example(([(NAN, 2, 0, 0), (NAN, 1, 0, 1)], (0, 1), False))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_stable_sort_on_wrapped_keys(self, case):
        rows, positions, one_shot = case
        expected = sorted(rows, key=lambda r: null_safe_wrap(
            [r[i] for i in positions]))
        out = sorted_nulls_first(iter(rows) if one_shot else rows, positions)
        assert [r[3] for r in out] == [r[3] for r in expected]

    def test_one_shot_iterable_meeting_a_null_loses_no_row(self):
        rows = [(2, "a"), (None, "b"), (1, "c")]
        assert sorted_nulls_first(iter(rows), (0,)) == \
            [(None, "b"), (1, "c"), (2, "a")]

    def test_rows_led_by_one_nan_object_are_one_run(self):
        """Tuple comparison finds an object equal to itself, NaN
        included; a run split on ``!=`` would leave these in input order."""
        rows = [(NAN, 2), (NAN, 1)]
        assert sorted_nulls_first(rows, (0, 1)) == [rows[1], rows[0]]

    def test_null_inside_a_tie_run_redoes_the_whole_input(self):
        rows = [(1, 5, "a"), (0, 9, "b"), (1, None, "c"), (0, 3, "d")]
        assert sorted_nulls_first(rows, (0, 1)) == \
            [(0, 3, "d"), (0, 9, "b"), (1, None, "c"), (1, 5, "a")]
        assert rows[0] == (1, 5, "a")  # the input is left as it was
