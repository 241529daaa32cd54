"""Logical algebra: the optimizer's input language.

Nodes are immutable and hashable: structurally equal nodes are equal.
Supported shapes cover the paper's entire workload: select-project-join
trees with inner/left/full-outer joins, grouping/aggregation, duplicate
elimination, distinct union, computed columns and a root ORDER BY.

The per-node derivation steps live here: :func:`derive_schema` (output
schema) and :func:`equivalence_pairs` (attribute pairs equal on every
row).  The optimizer's group table
(:mod:`repro.optimizer.pipeline.groups`) folds them, with
:func:`~repro.logical.fds.node_fds`, bottom up over a searched tree once;
:func:`output_schema` folds the schema step alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..core.sort_order import AttributeEquivalence, SortOrder
from ..expr.aggregates import AggSpec, aggregate_output_schema
from ..expr.expressions import (
    Expression,
    JoinPredicate,
    Predicate,
    expression_params,
)
from ..storage.catalog import Catalog
from ..storage.schema import Column, Schema


class LogicalExpr:
    """Base class for logical operators (immutable, hashable)."""

    children: tuple["LogicalExpr", ...] = ()

    def walk(self) -> Iterator["LogicalExpr"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.label()}"]
        lines.extend(child.pretty(indent + 1) for child in self.children)
        return "\n".join(lines)

    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class BaseRelation(LogicalExpr):
    """A reference to a catalog table."""

    table_name: str

    def label(self) -> str:
        return f"Relation({self.table_name})"


@dataclass(frozen=True)
class Select(LogicalExpr):
    """σ — filter by a predicate."""

    child: LogicalExpr
    predicate: Predicate

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", (self.child,))

    def label(self) -> str:
        return f"Select({self.predicate})"


@dataclass(frozen=True)
class Project(LogicalExpr):
    """π — keep the named columns, in order."""

    child: LogicalExpr
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", (self.child,))

    def label(self) -> str:
        return f"Project({', '.join(self.columns)})"


@dataclass(frozen=True)
class Compute(LogicalExpr):
    """Extend rows with computed columns ``(name, expression)``."""

    child: LogicalExpr
    outputs: tuple[tuple[str, Expression], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", (self.child,))

    def label(self) -> str:
        return "Compute(" + ", ".join(f"{n}={e}" for n, e in self.outputs) + ")"


@dataclass(frozen=True)
class Join(LogicalExpr):
    """Equi-join (inner / left / full outer) on conjunctive equalities."""

    left: LogicalExpr
    right: LogicalExpr
    predicate: JoinPredicate
    join_type: str = "inner"

    def __post_init__(self) -> None:
        if self.join_type not in ("inner", "left", "full"):
            raise ValueError(f"bad join type {self.join_type!r}")
        object.__setattr__(self, "children", (self.left, self.right))

    def label(self) -> str:
        kind = "" if self.join_type == "inner" else f" {self.join_type.upper()} OUTER"
        return f"Join{kind}({self.predicate})"


@dataclass(frozen=True)
class GroupBy(LogicalExpr):
    """Grouping + aggregation."""

    child: LogicalExpr
    group_columns: tuple[str, ...]
    aggregates: tuple[AggSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", (self.child,))

    def label(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"GroupBy({', '.join(self.group_columns)}; {aggs})"


@dataclass(frozen=True)
class Distinct(LogicalExpr):
    """Duplicate elimination over all columns."""

    child: LogicalExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", (self.child,))


@dataclass(frozen=True)
class Union(LogicalExpr):
    """Set union (duplicate-eliminating) of two compatible inputs."""

    left: LogicalExpr
    right: LogicalExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", (self.left, self.right))


@dataclass(frozen=True)
class OrderBy(LogicalExpr):
    """Root-level ORDER BY: a required physical property, not an operator."""

    child: LogicalExpr
    order: SortOrder

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", (self.child,))

    def label(self) -> str:
        return f"OrderBy{self.order}"


@dataclass(frozen=True)
class Limit(LogicalExpr):
    """Keep the first *k* rows of the (ordered) child."""

    child: LogicalExpr
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", (self.child,))

    def label(self) -> str:
        return f"Limit({self.k})"


def referenced_tables(expr: LogicalExpr) -> frozenset[str]:
    """Names of every base table the expression reads.

    The serving layer keys cached plans on the statistics versions of
    exactly these tables, so a stats refresh on an unrelated table never
    evicts a plan that does not depend on it.
    """
    return frozenset(node.table_name for node in expr.walk()
                     if isinstance(node, BaseRelation))


def referenced_params(expr: LogicalExpr) -> frozenset[str]:
    """Names of every query parameter the expression reads — in a
    filter predicate, a computed column or an aggregate's argument: the
    bindings an execution of it must supply."""
    names: frozenset[str] = frozenset()
    for node in expr.walk():
        if isinstance(node, Select):
            names |= expression_params(node.predicate)
        elif isinstance(node, Compute):
            for _, output in node.outputs:
                names |= expression_params(output)
        elif isinstance(node, GroupBy):
            for spec in node.aggregates:
                names |= expression_params(spec.arg)
    return names


def derive_schema(catalog: Catalog, expr: LogicalExpr,
                  child_schemas: Sequence[Schema]) -> Schema:
    """Output schema of *expr* given its children's output schemas — the
    per-node step that the optimizer's group table runs once per group
    and :func:`output_schema` folds over a whole tree."""
    if isinstance(expr, BaseRelation):
        return catalog.table(expr.table_name).schema
    if isinstance(expr, (Select, Distinct, OrderBy, Limit, Union)):
        return child_schemas[0]
    if isinstance(expr, Project):
        return child_schemas[0].project(list(expr.columns))
    if isinstance(expr, Compute):
        extra = [Column(name, "num", 8) for name, _ in expr.outputs]
        return Schema(list(child_schemas[0]) + extra)
    if isinstance(expr, Join):
        return child_schemas[0].concat(child_schemas[1])
    if isinstance(expr, GroupBy):
        return aggregate_output_schema(list(expr.group_columns),
                                       child_schemas[0],
                                       list(expr.aggregates))
    raise TypeError(f"unknown logical node {type(expr).__name__}")


def output_schema(catalog: Catalog, expr: LogicalExpr) -> Schema:
    """Output schema of a whole tree: :func:`derive_schema` folded bottom
    up and nothing else — for a caller that reads one schema off a tree
    it does not search (a searched tree's schemas, equivalences and used
    attributes are its group table's)."""
    return derive_schema(catalog, expr, [output_schema(catalog, child)
                                         for child in expr.children])


def equivalence_pairs(expr: LogicalExpr,
                      children: Sequence[tuple[list[tuple[str, str]], Schema]]
                      ) -> list[tuple[str, str]]:
    """Attribute pairs provably equal on every row *expr* produces, given
    each child's ``(pairs, output schema)``.

    Only INNER join equalities are true equivalences: an outer join
    pads one side's columns with NULLs on unmatched rows, so
    ``l = r`` does not hold row-by-row and orders must not transfer
    across the pair (mirrors node_fds).

    A :class:`Union` *intersects* its branches: a pair of output
    columns is equivalent only when both branches guarantee it
    (right branch tested under the positional rename) — an equality
    established by one branch's join does not hold on the sibling's
    rows, even when the branches reuse the same column names.
    Branch-internal pairs over columns invisible above the union are
    dropped (conservative, and nothing above can name them).
    """
    if isinstance(expr, Union):
        (left_pairs, left_schema), (right_pairs, right_schema) = children
        left_eq = AttributeEquivalence.of(left_pairs)
        right_eq = AttributeEquivalence.of(right_pairs)
        lnames = left_schema.names
        rename = dict(zip(lnames, right_schema.names))
        return [(a, b) for i, a in enumerate(lnames) for b in lnames[i + 1:]
                if left_eq.same(a, b) and right_eq.same(rename[a], rename[b])]
    pairs: list[tuple[str, str]] = []
    if isinstance(expr, Join) and expr.join_type == "inner":
        pairs.extend(expr.predicate.pairs)
    for child_pairs, _ in children:
        pairs.extend(child_pairs)
    return pairs
