"""Fluent query builder.

Thin sugar over :mod:`repro.logical.algebra`, so examples and tests read
like the paper's SQL; :func:`repro.workloads.query3` is the paper's
Query 3 written this way.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union as TUnion

from ..core.sort_order import SortOrder
from ..expr.aggregates import AggSpec
from ..expr.expressions import Expression, JoinPredicate, Predicate
from .algebra import (
    BaseRelation,
    Compute,
    Distinct,
    GroupBy,
    Join,
    Limit,
    LogicalExpr,
    OrderBy,
    Project,
    Select,
    Union,
)


class Query:
    """Immutable builder wrapping a :class:`LogicalExpr`."""

    def __init__(self, expr: LogicalExpr) -> None:
        self.expr = expr

    # -- sources ---------------------------------------------------------------
    @staticmethod
    def table(name: str) -> "Query":
        return Query(BaseRelation(name))

    @staticmethod
    def of(expr: LogicalExpr) -> "Query":
        return Query(expr)

    # -- relational operators -----------------------------------------------------
    def where(self, predicate: Predicate) -> "Query":
        return Query(Select(self.expr, predicate))

    def select(self, *columns: str) -> "Query":
        return Query(Project(self.expr, tuple(columns)))

    def compute(self, **outputs: Expression) -> "Query":
        return Query(Compute(self.expr, tuple(outputs.items())))

    def join(self, other: TUnion[str, "Query", LogicalExpr],
             on: Sequence[tuple[str, str]], how: str = "inner") -> "Query":
        right = _to_expr(other)
        return Query(Join(self.expr, right, JoinPredicate(on), how))

    def full_outer_join(self, other, on: Sequence[tuple[str, str]]) -> "Query":
        return self.join(other, on, how="full")

    def left_outer_join(self, other, on: Sequence[tuple[str, str]]) -> "Query":
        return self.join(other, on, how="left")

    def group_by(self, columns: Sequence[str], *aggregates: AggSpec) -> "Query":
        return Query(GroupBy(self.expr, tuple(columns), tuple(aggregates)))

    def having(self, predicate: Predicate) -> "Query":
        """Filter applied after grouping (identical node to WHERE; it
        simply references aggregate output columns)."""
        return Query(Select(self.expr, predicate))

    def distinct(self) -> "Query":
        return Query(Distinct(self.expr))

    def union(self, other: TUnion[str, "Query", LogicalExpr]) -> "Query":
        return Query(Union(self.expr, _to_expr(other)))

    def order_by(self, *columns: str) -> "Query":
        return Query(OrderBy(self.expr, SortOrder(columns)))

    def limit(self, k: int) -> "Query":
        return Query(Limit(self.expr, k))

    # -- introspection ---------------------------------------------------------------
    def pretty(self) -> str:
        return self.expr.pretty()

    def __repr__(self) -> str:
        return f"Query(\n{self.pretty()}\n)"


def _to_expr(source: TUnion[str, Query, LogicalExpr]) -> LogicalExpr:
    if isinstance(source, str):
        return BaseRelation(source)
    if isinstance(source, Query):
        return source.expr
    if isinstance(source, LogicalExpr):
        return source
    raise TypeError(f"cannot treat {source!r} as a query source")
