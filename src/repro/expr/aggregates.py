"""Aggregate function specifications.

``AggSpec`` pairs an aggregate function name with an input expression and
an output column name, e.g. Query 5's
``SUM(T2.Quantity * T2.Price) AS ExecutedValue`` becomes
``AggSpec("sum", col("t2_quantity") * col("t2_price"), "executedvalue")``.

Each aggregate is stated twice, side by side: as an ``init``/``step``/
``final`` state machine over Python values, the row-at-a-time semantics
that ``tests/row_oracle.py`` runs, and as source templates that the
generated aggregate kernels (:mod:`repro.engine.kernels`) inline into
their one loop over a batch's rows.  A property test holds the two to
the same rows, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..storage.schema import Column, Schema
from .expressions import Expression, wrap


@dataclass(frozen=True)
class AggregateFunction:
    """An incremental aggregate: ``init() → state``, ``step(state, v)``,
    ``final(state) → value``, with NULL inputs skipped when
    ``ignores_null``.

    The kernel form keeps the state in ``len(slots)`` slots, ``slots``
    holding each one's initial value as source.  ``advance`` is the
    statements that fold one non-skipped value ``{v}`` into the slots
    ``{s0}``, ``{s1}``, …, and ``result`` the output expression over
    them.  An aggregate that keeps NULLs reads no value.  The templates
    do what ``step`` and ``final`` do: sums add left to right from the
    state, so float sums are not reassociated, and ``min``/``max`` keep
    the first of ties.
    """

    name: str
    init: Callable[[], Any]
    step: Callable[[Any, Any], Any]
    final: Callable[[Any], Any]
    slots: tuple[str, ...]
    advance: str
    result: str = "{s0}"
    ignores_null: bool = True


def _avg_final(state: tuple[float, int]) -> Optional[float]:
    total, count = state
    return total / count if count else None


AGGREGATES: dict[str, AggregateFunction] = {
    "count": AggregateFunction(
        "count", init=lambda: 0, step=lambda s, v: s + 1, final=lambda s: s,
        slots=("0",), advance="{s0} += 1",
    ),
    "sum": AggregateFunction(
        "sum", init=lambda: None,
        step=lambda s, v: v if s is None else s + v,
        final=lambda s: s,
        slots=("None",), advance="{s0} = {v} if {s0} is None else {s0} + {v}",
    ),
    "min": AggregateFunction(
        "min", init=lambda: None,
        step=lambda s, v: v if s is None else min(s, v),
        final=lambda s: s,
        slots=("None",), advance="if {s0} is None or {v} < {s0}: {s0} = {v}",
    ),
    "max": AggregateFunction(
        "max", init=lambda: None,
        step=lambda s, v: v if s is None else max(s, v),
        final=lambda s: s,
        slots=("None",), advance="if {s0} is None or {v} > {s0}: {s0} = {v}",
    ),
    "avg": AggregateFunction(
        "avg", init=lambda: (0.0, 0),
        step=lambda s, v: (s[0] + v, s[1] + 1),
        final=_avg_final,
        slots=("0.0", "0"), advance="{s0} += {v}\n{s1} += 1",
        result="({s0} / {s1} if {s1} else None)",
    ),
    "count_star": AggregateFunction(
        "count_star", init=lambda: 0, step=lambda s, v: s + 1, final=lambda s: s,
        slots=("0",), advance="{s0} += 1", ignores_null=False,
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
