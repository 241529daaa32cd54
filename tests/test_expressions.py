"""Expression language tests: evaluation, selectivity, join predicates,
aggregate specs."""

import pytest

from repro.engine.kernels import COMPUTE, compile_kernel
from repro.expr import And, Col, Comparison, Const, JoinPredicate, Or, col
from repro.expr.aggregates import (
    AGGREGATES,
    AggSpec,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    aggregate_output_schema,
    count_star,
)
from repro.storage import Schema, StatsView
from tests import row_oracle

SCHEMA = Schema.of(("a", "int", 8), ("b", "int", 8), ("s", "str", 10))


def value(expr, row):
    """*expr* on one row: its generated kernel's value over a one-row
    batch, which must be the row oracle's too."""
    got = compile_kernel(COMPUTE, [expr], SCHEMA)([row], {})[0][-1]
    assert got == row_oracle.evaluate(expr, SCHEMA)(row)
    return got


def stats(n=100, distinct=None):
    return StatsView(SCHEMA, n, distinct or {"a": 10, "b": 20})


class TestScalarExpressions:
    def test_col(self):
        assert value(col("b"), (1, 2, "x")) == 2
        assert col("b").columns() == {"b"}

    def test_const(self):
        assert value(Const(42), (0, 0, "")) == 42
        assert Const(42).columns() == set()

    def test_arithmetic(self):
        expr = (col("a") + col("b")) * 2 - 1
        assert value(expr, (3, 4, "")) == 13
        assert expr.columns() == {"a", "b"}

    def test_division(self):
        assert value(col("a") / col("b"), (6, 3, "")) == 2

    def test_unknown_operator_rejected(self):
        from repro.expr.expressions import BinOp
        with pytest.raises(ValueError):
            BinOp("%", col("a"), col("b"))


class TestPredicates:
    def test_comparisons(self):
        row = (5, 10, "hi")
        assert value(col("a").eq(5), row)
        assert value(col("a").lt(col("b")), row)
        assert not value(col("a").ge(6), row)
        assert value(col("s").ne("bye"), row)

    def test_and_flattens(self):
        p = And(col("a").eq(1), And(col("b").eq(2), col("a").lt(3)))
        assert len(p.parts) == 3
        assert p.conjuncts() == list(p.parts)

    def test_and_or_semantics(self):
        p = Or(col("a").eq(1), And(col("a").eq(2), col("b").eq(3)))
        assert value(p, (1, 0, ""))
        assert value(p, (2, 3, ""))
        assert not value(p, (2, 4, ""))

    def test_equality_selectivity(self):
        assert col("a").eq(5).selectivity(stats()) == pytest.approx(0.1)
        assert col("b").eq(5).selectivity(stats()) == pytest.approx(0.05)

    def test_and_selectivity_multiplies(self):
        p = And(col("a").eq(1), col("b").eq(2))
        assert p.selectivity(stats()) == pytest.approx(0.1 * 0.05)

    def test_range_selectivity(self):
        assert col("a").lt(5).selectivity(stats()) == pytest.approx(1 / 3)

    def test_or_selectivity(self):
        p = Or(col("a").eq(1), col("a").eq(2))
        assert p.selectivity(stats()) == pytest.approx(1 - 0.9 * 0.9)


class TestJoinPredicate:
    def test_basic(self):
        p = JoinPredicate([("a", "x"), ("b", "y")])
        assert p.left_columns == ("a", "b")
        assert p.right_columns == ("x", "y")
        assert len(p) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            JoinPredicate([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            JoinPredicate([("a", "x"), ("a", "y")])

    def test_hashable(self):
        assert hash(JoinPredicate([("a", "x")])) == hash(JoinPredicate([("a", "x")]))

    def test_duplicate_right_column_rejected(self):
        with pytest.raises(ValueError, match="duplicate column"):
            JoinPredicate([("a", "x"), ("b", "x")])

    def test_names_are_normalised_to_str(self):
        p = JoinPredicate(iter([(1, "x"), ("b", 2.5)]))
        assert p.pairs == (("1", "x"), ("b", "2.5"))
        assert all(type(name) is str for pair in p.pairs for name in pair)
        assert p == JoinPredicate([("1", "x"), ("b", "2.5")])

    @pytest.mark.parametrize("pairs, error", [
        ([("a",)], ValueError), ([("a", "x", "y")], ValueError),
        ([("a", "x"), ("b", "y", "z")], ValueError), ([1], TypeError)])
    def test_a_pair_is_two_names(self, pairs, error):
        with pytest.raises(error):
            JoinPredicate(pairs)


class TestAggregates:
    def test_all_registered(self):
        assert set(AGGREGATES) == {"count", "count_star", "sum", "min", "max", "avg"}

    def test_sum_step(self):
        f = AGGREGATES["sum"]
        s = f.init()
        for v in (1, 2, 3):
            s = f.step(s, v)
        assert f.final(s) == 6

    def test_avg(self):
        f = AGGREGATES["avg"]
        s = f.init()
        for v in (2, 4):
            s = f.step(s, v)
        assert f.final(s) == 3
        assert f.final(f.init()) is None

    def test_min_max(self):
        for name, expect in (("min", 1), ("max", 9)):
            f = AGGREGATES[name]
            s = f.init()
            for v in (5, 1, 9):
                s = f.step(s, v)
            assert f.final(s) == expect

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AggSpec("median", col("a"), "m")

    def test_helpers(self):
        assert agg_sum(col("a"), "s").func == "sum"
        assert agg_min(col("a"), "m").func == "min"
        assert agg_max(col("a"), "m").func == "max"
        assert agg_avg(col("a"), "m").func == "avg"
        assert count_star("n").func == "count_star"

    def test_output_schema(self):
        schema = aggregate_output_schema(["a"], SCHEMA, [agg_sum(col("b"), "sb")])
        assert schema.names == ("a", "sb")
