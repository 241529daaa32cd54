"""Join operator tests: merge vs hash vs nested loops, inner/left/full,
NULL semantics, order guarantees, Grace spill charging."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.engine import (
    ExecutionContext,
    HashJoin,
    MergeJoin,
    RowSource,
    Sort,
)
from repro.expr import JoinPredicate
from repro.optimizer.manual import PlanBuilder
from repro.storage import Catalog, Schema, SystemParameters
from tests import row_oracle
from tests.row_oracle import NestedLoopsJoin

LEFT = Schema.of(("a", "int", 8), ("b", "int", 8), ("x", "int", 8))
RIGHT = Schema.of(("c", "int", 8), ("d", "int", 8), ("y", "int", 8))
PRED = JoinPredicate([("a", "c"), ("b", "d")])


def reference_join(lrows, rrows, join_type="inner"):
    """Nested-loop reference with SQL NULL semantics."""
    out = []
    matched_r = set()
    for l in lrows:
        hit = False
        for j, r in enumerate(rrows):
            if (l[0] is not None and l[1] is not None
                    and l[0] == r[0] and l[1] == r[1]):
                out.append(l + r)
                hit = True
                matched_r.add(j)
        if not hit and join_type in ("left", "full"):
            out.append(l + (None, None, None))
    if join_type == "full":
        for j, r in enumerate(rrows):
            if j not in matched_r:
                out.append((None, None, None) + r)
    return sorted(out, key=repr)


def sorted_source(schema, rows, cols):
    src = RowSource(schema, list(rows))
    return Sort(src, SortOrder(cols))


def run_merge(lrows, rrows, join_type="inner"):
    op = MergeJoin(sorted_source(LEFT, lrows, ["a", "b"]),
                   sorted_source(RIGHT, rrows, ["c", "d"]), PRED, join_type)
    return sorted(op.run(ExecutionContext(check_orders=True)), key=repr)


def run_hash(lrows, rrows, join_type="inner"):
    op = HashJoin(RowSource(LEFT, list(lrows)), RowSource(RIGHT, list(rrows)),
                  PRED, join_type)
    return sorted(op.run(ExecutionContext()), key=repr)


ROWS = st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 4)),
                          st.one_of(st.none(), st.integers(0, 3)),
                          st.integers(0, 99)), max_size=40)


#: Few distinct keys, so build keys repeat; ``1``/``1.0``/``True`` are one.
ORDER_KEY = st.sampled_from([None, 0, 1, 1.0, True, 2])
ORDER_ROWS = st.lists(st.tuples(ORDER_KEY, ORDER_KEY, st.integers(0, 99)),
                      max_size=30)
#: A right side wider than the left, so each side's padding has its width.
WIDE = Schema.of(("c", "int", 8), ("d", "int", 8), ("y", "int", 8), ("z", "int", 8))
WIDE_ROWS = st.lists(st.tuples(ORDER_KEY, ORDER_KEY, st.integers(0, 99),
                               st.integers(0, 9)), max_size=30)


class TestJoinCorrectness:
    @pytest.mark.parametrize("join_type", ["inner", "left", "full"])
    def test_small_example(self, join_type):
        lrows = [(1, 1, 10), (1, 2, 11), (2, 1, 12), (None, 1, 13)]
        rrows = [(1, 1, 20), (1, 1, 21), (3, 3, 22), (None, 1, 23)]
        expected = reference_join(lrows, rrows, join_type)
        assert run_merge(lrows, rrows, join_type) == expected
        assert run_hash(lrows, rrows, join_type) == expected

    @given(ROWS, ROWS)
    @settings(max_examples=80, deadline=None)
    def test_merge_inner_matches_reference(self, lrows, rrows):
        assert run_merge(lrows, rrows) == reference_join(lrows, rrows)

    @given(ROWS, ROWS)
    @settings(max_examples=60, deadline=None)
    def test_merge_full_matches_reference(self, lrows, rrows):
        assert run_merge(lrows, rrows, "full") == \
            reference_join(lrows, rrows, "full")

    @given(ROWS, ROWS)
    @settings(max_examples=60, deadline=None)
    def test_merge_left_matches_reference(self, lrows, rrows):
        assert run_merge(lrows, rrows, "left") == \
            reference_join(lrows, rrows, "left")

    @given(ROWS, ROWS)
    @settings(max_examples=60, deadline=None)
    def test_hash_agrees_with_merge(self, lrows, rrows):
        for jt in ("inner", "left", "full"):
            assert run_hash(lrows, rrows, jt) == run_merge(lrows, rrows, jt)

    def test_nested_loops_matches_reference(self):
        rng = random.Random(8)
        lrows = [(rng.randrange(5), rng.randrange(3), i) for i in range(60)]
        rrows = [(rng.randrange(5), rng.randrange(3), i) for i in range(40)]
        op = NestedLoopsJoin(RowSource(LEFT, lrows), RowSource(RIGHT, rrows), PRED)
        assert sorted(op.run(ExecutionContext()), key=repr) == \
            reference_join(lrows, rrows)


class TestJoinProperties:
    def test_merge_output_order_guarantee(self):
        """The plan states each join's order: a merge join claims its
        left permutation, a FULL OUTER merge join and a hash join claim
        ε.  The merge join's rows hold to the claim."""
        rng = random.Random(9)
        lrows = [(rng.randrange(6), rng.randrange(4), i) for i in range(100)]
        rrows = [(rng.randrange(6), rng.randrange(4), i) for i in range(80)]
        cat = Catalog()
        cat.create_table("l", LEFT, rows=lrows)
        cat.create_table("r", RIGHT, rows=rrows)
        b = PlanBuilder(cat)
        pairs = [("b", "d"), ("a", "c")]
        join = b.merge_join(b.table_scan("l"), b.table_scan("r"), pairs)
        assert join.order == SortOrder(["b", "a"])
        full = b.merge_join(b.table_scan("l"), b.table_scan("r"), pairs, "full")
        assert full.order == EMPTY_ORDER
        for join_type in ("inner", "left", "full"):
            hashed = b.hash_join(b.table_scan("l"), b.table_scan("r"), pairs,
                                 join_type)
            assert hashed.order == EMPTY_ORDER
        out = join.execute(cat, ExecutionContext(cat, check_orders=True))
        keys = [(r[1], r[0]) for r in out]
        assert keys == sorted(keys)
        op = MergeJoin(sorted_source(LEFT, lrows, ["a", "b"]),
                       sorted_source(RIGHT, rrows, ["c", "d"]), PRED)
        out = op.run(ExecutionContext(check_orders=True))
        keys = [(r[0], r[1]) for r in out]
        assert keys == sorted(keys)

    def test_merge_requires_sorted_inputs(self):
        lrows = [(2, 1, 0), (1, 1, 1)]  # unsorted; right key larger so the
        # merge must consume the whole left stream and hit the violation
        op = MergeJoin(RowSource(LEFT, lrows),
                       sorted_source(RIGHT, [(3, 1, 5)], ["c", "d"]), PRED)
        with pytest.raises(AssertionError):
            op.run(ExecutionContext(check_orders=True))

    def test_permuted_pair_order(self):
        """Merge join must respect the *permutation* in the predicate."""
        pred_ba = JoinPredicate([("b", "d"), ("a", "c")])
        rng = random.Random(10)
        lrows = [(rng.randrange(5), rng.randrange(5), i) for i in range(50)]
        rrows = [(rng.randrange(5), rng.randrange(5), i) for i in range(50)]
        op = MergeJoin(sorted_source(LEFT, lrows, ["b", "a"]),
                       sorted_source(RIGHT, rrows, ["d", "c"]), pred_ba)
        out = sorted(op.run(ExecutionContext(check_orders=True)), key=repr)
        assert out == reference_join(lrows, rrows)

    def test_nested_loops_preserves_outer_order(self):
        lrows = [(i // 10, i % 10, i) for i in range(50)]
        op = NestedLoopsJoin(RowSource(LEFT, lrows),
                             RowSource(RIGHT, [(i // 10, i % 10, i)
                                               for i in range(30)]), PRED)
        out = op.run(ExecutionContext())
        keys = [(r[0], r[1]) for r in out]
        assert keys == sorted(keys)

    def test_hash_join_grace_spill_charged(self):
        params = SystemParameters(block_size=256, sort_memory_blocks=2)
        lrows = [(i % 7, i % 3, i) for i in range(500)]
        rrows = [(i % 7, i % 3, i) for i in range(200)]
        op = HashJoin(RowSource(LEFT, lrows), RowSource(RIGHT, rrows), PRED)
        ctx = ExecutionContext(params=params)
        op.run(ctx)
        assert ctx.io.partition_blocks > 0

    @pytest.mark.parametrize("join_type", ["inner", "left", "full"])
    @given(lrows=ORDER_ROWS, rrows=WIDE_ROWS,
           params=st.sampled_from([SystemParameters(),
                                   SystemParameters(block_size=24,
                                                    sort_memory_blocks=2)]))
    @settings(max_examples=80, deadline=None)
    def test_hash_join_row_order(self, join_type, lrows, rrows, params):
        """The hash join's output *in order* is the row oracle's
        (``row_oracle.hash_join``), with equal tallies, the Grace spill
        charge included, at batch sizes 1, 7 and 1024: NULL keys on both
        sides, duplicate build keys, empty sides and ``1``/``1.0``/
        ``True`` keys, which are one key under three spellings."""
        oracle_ctx = ExecutionContext(params=params)
        expected = row_oracle.hash_join(lrows, rrows, LEFT, WIDE, PRED,
                                        join_type, oracle_ctx)
        op = HashJoin(RowSource(LEFT, lrows), RowSource(WIDE, rrows), PRED,
                      join_type)
        for batch_size in (1, 7, 1024):
            ctx = ExecutionContext(params=params, batch_size=batch_size)
            assert list(map(repr, op.run(ctx))) == list(map(repr, expected))
            assert ctx.tallies() == oracle_ctx.tallies(), batch_size

    def test_hash_join_no_spill_when_fits(self):
        op = HashJoin(RowSource(LEFT, [(1, 1, 1)]), RowSource(RIGHT, [(1, 1, 2)]),
                      PRED)
        ctx = ExecutionContext()
        op.run(ctx)
        assert ctx.io.partition_blocks == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MergeJoin(RowSource(LEFT, []), RowSource(RIGHT, []), PRED, "cross")
        with pytest.raises(ValueError):
            MergeJoin(RowSource(LEFT, []), RowSource(RIGHT, []),
                      JoinPredicate([("nope", "c")]))
