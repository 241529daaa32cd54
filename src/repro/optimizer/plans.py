"""Physical plans.

A :class:`PhysicalPlan` is an immutable costed plan node; trees of them
are what the optimizer searches over and what phase-2 refinement
rewrites.  Unlike the engine's operators, physical plans carry
statistics and estimated costs, so stats-only catalogs (the paper-scale
optimizer experiments) can be planned without any data.  For
materialised catalogs, :meth:`PhysicalPlan.to_operator` lowers a plan to
an executable engine operator tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..engine import operators_from_plan  # circular-safe: see engine/lowering.py
from ..storage.schema import Schema
from ..storage.statistics import StatsView


@dataclass(frozen=True)
class PhysicalPlan:
    """One physical operator with children, statistics and cost.

    ``args`` holds operator-specific payload (table name, predicate,
    target order, …) keyed by convention per ``op``: written by the op's
    constructor on :class:`~repro.optimizer.manual.PlanBuilder`, read by
    :mod:`repro.engine.lowering`, which has the authoritative list.
    """

    op: str
    schema: Schema
    order: SortOrder
    stats: StatsView
    self_cost: float
    children: tuple["PhysicalPlan", ...] = ()
    args: tuple[tuple[str, Any], ...] = ()
    #: Subtree cost, fixed at construction (children are immutable): the
    #: search compares it per candidate, so it is never re-walked.
    total_cost: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_cost", self.self_cost + sum(
            c.total_cost for c in self.children))

    def __reduce__(self):
        # Constructor arguments only: the derived total is recomputed on
        # load instead of travelling in every pickled shard task.
        return (PhysicalPlan, (self.op, self.schema, self.order, self.stats,
                               self.self_cost, self.children, self.args))

    # -- payload access -----------------------------------------------------------
    def arg(self, name: str, default: Any = None) -> Any:
        for key, value in self.args:
            if key == name:
                return value
        return default

    @property
    def rows(self) -> float:
        return self.stats.N

    # -- traversal ------------------------------------------------------------------
    def walk(self) -> Iterator["PhysicalPlan"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find_all(self, op: str) -> list["PhysicalPlan"]:
        return [p for p in self.walk() if p.op == op]

    def with_children(self, children: Sequence["PhysicalPlan"]) -> "PhysicalPlan":
        return PhysicalPlan(self.op, self.schema, self.order, self.stats,
                            self.self_cost, tuple(children), self.args)

    # -- presentation ------------------------------------------------------------------
    def describe(self) -> str:
        detail = {
            "TableScan": lambda: self.arg("table"),
            "ShardedScan": lambda: (f"{self.arg('table')} shard "
                                    f"{self.arg('shard_index')}/{self.arg('shard_count')}"),
            "RangePartitionScan": lambda: (
                f"{self.arg('table')} partition "
                f"{self.arg('partition_index')}/{self.arg('partition_count')}"),
            "ExchangeUnion": lambda: f"{len(self.children)} shards",
            "MergeExchange": lambda: (
                f"{len(self.children)} shards on {self.order}"
                + (", disjoint concat" if self.arg("disjoint") else "")),
            "SortedCombine": lambda: f"combine by {self.order}",
            "ClusteringIndexScan": lambda: f"{self.arg('table')} {self.order}",
            "CoveringIndexScan": lambda: f"{self.arg('table')}.{self.arg('index')} {self.order}",
            "Filter": lambda: f"{self.arg('predicate')}",
            "Project": lambda: ", ".join(self.schema.names),
            "Compute": lambda: ", ".join(n for n, _ in self.arg("outputs", ())),
            "Sort": lambda: f"ε --> {self.order}",
            "PartialSort": lambda: f"{self.arg('prefix')} --> {self.order}",
            "MergeJoin": lambda: f"{self.arg('predicate')} on {self.order}",
            "HashJoin": lambda: f"{self.arg('predicate')}",
            "SortAggregate": lambda: f"by {self.order}",
            "HashAggregate": lambda: f"by {{{', '.join(self.arg('group_columns', ()))}}}",
            "MergeUnion": lambda: f"on {self.order}",
            "Dedup": lambda: f"on {self.order}",
        }.get(self.op)
        join_type = self.arg("join_type")
        suffix = f" [{join_type} outer]" if join_type in ("left", "full") else ""
        return (detail() if detail else "") + suffix

    def explain(self, indent: int = 0, with_cost: bool = True) -> str:
        pad = "  " * indent
        cost = f"  (cost={self.total_cost:,.0f}, rows={self.rows:,.0f})" if with_cost else ""
        order = f" [order: {self.order}]" if self.order else ""
        line = f"{pad}{self.op} ({self.describe()}){order}{cost}"
        parts = [line]
        parts.extend(c.explain(indent + 1, with_cost) for c in self.children)
        return "\n".join(parts)

    def signature(self) -> str:
        """Order-and-shape signature for plan comparisons in tests."""
        child_sigs = ",".join(c.signature() for c in self.children)
        return f"{self.op}{self.order}({child_sigs})"

    # -- lowering ---------------------------------------------------------------------
    def to_operator(self, catalog) -> "Any":
        """Lower to an executable engine operator tree."""
        return operators_from_plan(self, catalog)

    def execute(self, catalog, ctx=None) -> list[tuple]:
        """Convenience: lower and run, returning all rows."""
        from ..engine.context import ExecutionContext
        ctx = ctx or ExecutionContext(catalog)
        return self.to_operator(catalog).run(ctx)

    def __repr__(self) -> str:
        return f"PhysicalPlan({self.op}, cost={self.total_cost:,.0f})"


def make_plan(op: str, schema: Schema, order: SortOrder, stats: StatsView,
              self_cost: float, children: Sequence[PhysicalPlan] = (),
              **args: Any) -> PhysicalPlan:
    """Node shorthand; :class:`PlanBuilder` is its only caller here."""
    return PhysicalPlan(op, schema, order, stats, float(self_cost),
                        tuple(children), tuple(args.items()))
