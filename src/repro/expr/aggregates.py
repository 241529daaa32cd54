"""Aggregate function specifications.

``AggSpec`` pairs an aggregate function name with an input expression and
an output column name, e.g. Query 5's
``SUM(T2.Quantity * T2.Price) AS ExecutedValue`` becomes
``AggSpec("sum", col("t2_quantity") * col("t2_price"), "executedvalue")``.

Aggregates are implemented as classic init/step/final state machines so
both the sort-based (streaming) and hash-based (dict of states)
aggregation operators share them.  Each also has a *fold* form that
advances a state over a whole run of values in one call, and most a
*bulk* form that aggregates one whole group's values in a single C-level
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import Any, Callable, Optional, Sequence

from ..storage.schema import Column, Schema
from .expressions import Col, Expression, wrap


@dataclass(frozen=True)
class AggregateFunction:
    """An incremental aggregate: ``init() → state``, ``step(state, v)``,
    ``final(state) → value``.

    ``fold(state, values)`` is ``step`` folded over a sequence holding
    no value the aggregate ignores, in one call: the same additions in
    the same order, the same pick among ties; an empty sequence leaves
    *state* as it is.

    ``bulk(values)``, where there is one, is the aggregate of a whole
    group at once: for a non-empty sequence holding no value the
    aggregate ignores, exactly ``final`` of ``step`` folded over it from
    ``init()``.
    """

    name: str
    init: Callable[[], Any]
    step: Callable[[Any, Any], Any]
    final: Callable[[Any], Any]
    fold: Callable[[Any, Sequence], Any]
    ignores_null: bool = True
    bulk: Optional[Callable[[Sequence], Any]] = None


def _count_fold(state: int, values: Sequence) -> int:
    return state + len(values)


def _sum_fold(state, values: Sequence):
    # Left to right from the state, like ``step`` (builtin ``sum``
    # starts from 0 and may reassociate float additions).
    if state is None:
        return reduce(add, values) if values else None
    return reduce(add, values, state)


def _min_fold(state, values: Sequence):
    if not values:
        return state
    low = min(values)  # the first of tied minima, as ``step`` keeps
    return low if state is None or low < state else state


def _max_fold(state, values: Sequence):
    if not values:
        return state
    high = max(values)
    return high if state is None or high > state else state


def _avg_fold(state: tuple[float, int], values: Sequence) -> tuple[float, int]:
    total, count = state
    return reduce(add, values, total), count + len(values)


def _avg_final(state: tuple[float, int]) -> Optional[float]:
    total, count = state
    return total / count if count else None


AGGREGATES: dict[str, AggregateFunction] = {
    "count": AggregateFunction(
        "count", init=lambda: 0, step=lambda s, v: s + 1, final=lambda s: s,
        fold=_count_fold, bulk=len,
    ),
    "sum": AggregateFunction(
        "sum", init=lambda: None,
        step=lambda s, v: v if s is None else s + v,
        final=lambda s: s,
        fold=_sum_fold, bulk=partial(reduce, add),
    ),
    "min": AggregateFunction(
        "min", init=lambda: None,
        step=lambda s, v: v if s is None else min(s, v),
        final=lambda s: s,
        fold=_min_fold, bulk=min,
    ),
    "max": AggregateFunction(
        "max", init=lambda: None,
        step=lambda s, v: v if s is None else max(s, v),
        final=lambda s: s,
        fold=_max_fold, bulk=max,
    ),
    "avg": AggregateFunction(
        "avg", init=lambda: (0.0, 0),
        step=lambda s, v: (s[0] + v, s[1] + 1),
        final=_avg_final,
        fold=_avg_fold,
    ),
    "count_star": AggregateFunction(
        "count_star", init=lambda: 0, step=lambda s, v: s + 1, final=lambda s: s,
        fold=_count_fold, ignores_null=False, bulk=len,
    ),
}


@dataclass(frozen=True)
class AggSpec:
    """One aggregate in a GROUP BY's select list."""

    func: str
    arg: Expression
    output_name: str
    output_size: int = 8

    def __init__(self, func: str, arg, output_name: str, output_size: int = 8) -> None:
        func = func.lower()
        if func not in AGGREGATES:
            raise ValueError(f"unknown aggregate {func!r}; have {sorted(AGGREGATES)}")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", wrap(arg))
        object.__setattr__(self, "output_name", output_name)
        object.__setattr__(self, "output_size", output_size)

    @property
    def function(self) -> AggregateFunction:
        return AGGREGATES[self.func]

    def output_column(self) -> Column:
        return Column(self.output_name, "num", self.output_size)

    def columns(self) -> frozenset[str]:
        return self.arg.columns()

    def __repr__(self) -> str:
        return f"{self.func}({self.arg}) AS {self.output_name}"


def count(arg, name: str = "count") -> AggSpec:
    return AggSpec("count", arg, name)


def count_star(name: str = "count") -> AggSpec:
    from .expressions import Const
    return AggSpec("count_star", Const(1), name)


def agg_sum(arg, name: str = "sum") -> AggSpec:
    return AggSpec("sum", arg, name)


def agg_min(arg, name: str = "min") -> AggSpec:
    return AggSpec("min", arg, name)


def agg_max(arg, name: str = "max") -> AggSpec:
    return AggSpec("max", arg, name)


def agg_avg(arg, name: str = "avg") -> AggSpec:
    return AggSpec("avg", arg, name)


def aggregate_output_schema(group_columns: list[str], input_schema: Schema,
                            aggs: list[AggSpec]) -> Schema:
    """Schema of a GROUP BY output: group columns then aggregate columns."""
    cols = [input_schema[name] for name in group_columns]
    cols.extend(spec.output_column() for spec in aggs)
    return Schema(cols)
