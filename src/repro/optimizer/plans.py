"""Physical plans.

A :class:`PhysicalPlan` is an immutable costed plan node; trees of them
are what the optimizer searches over and what phase-2 refinement
rewrites.  Unlike the engine's operators, physical plans carry
statistics and estimated costs, so stats-only catalogs (the paper-scale
optimizer experiments) can be planned without any data.  A node's op
names its row of :data:`~repro.engine.lowering.LOWERINGS`, which gives
the node's EXPLAIN detail and, for materialised catalogs, the engine
operator :meth:`PhysicalPlan.to_operator` lowers it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..engine.lowering import LOWERINGS, operators_from_plan
from ..storage.schema import Schema
from ..storage.statistics import StatsView


@dataclass(frozen=True)
class PhysicalPlan:
    """One physical operator with children, statistics and cost.

    ``args`` holds operator-specific payload (table name, predicate,
    known prefix, …) keyed by convention per ``op``: written by the op's
    constructor on :class:`~repro.optimizer.manual.PlanBuilder`, read by
    the op's row of :data:`~repro.engine.lowering.LOWERINGS`, which also
    gives the node's EXPLAIN detail.
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
        object.__setattr__(self, "total_cost",
                           subtree_cost(self.self_cost, self.children))

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

    def build(self) -> "PhysicalPlan":
        """The plan itself: a built node is its own recipe (see
        :class:`~repro.optimizer.manual.Priced`)."""
        return self

    def with_children(self, children: Sequence["PhysicalPlan"]) -> "PhysicalPlan":
        return PhysicalPlan(self.op, self.schema, self.order, self.stats,
                            self.self_cost, tuple(children), self.args)

    # -- presentation ------------------------------------------------------------------
    def describe(self) -> str:
        """This node's EXPLAIN detail, from its lowering row."""
        row = LOWERINGS.get(self.op)
        return row.detail(self) if row else ""

    def label(self) -> str:
        """``op (describe) [order: …]``: this node's line in EXPLAIN and
        in EXPLAIN ANALYZE, before the cost each of them appends."""
        order = f" [order: {self.order}]" if self.order else ""
        return f"{self.op} ({self.describe()}){order}"

    def explain(self, indent: int = 0, with_cost: bool = True) -> str:
        pad = "  " * indent
        cost = f"  (cost={self.total_cost:,.0f}, rows={self.rows:,.0f})" if with_cost else ""
        parts = [f"{pad}{self.label()}{cost}"]
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


def subtree_cost(self_cost: float, children: Sequence[PhysicalPlan]) -> float:
    """A node's total cost: its own plus its children's totals."""
    return self_cost + sum(c.total_cost for c in children)


def make_plan(op: str, schema: Schema, order: SortOrder, stats: StatsView,
              self_cost: float, children: Sequence[PhysicalPlan] = (),
              **args: Any) -> PhysicalPlan:
    """Node shorthand; :class:`PlanBuilder` is its only caller here."""
    return PhysicalPlan(op, schema, order, stats, float(self_cost),
                        tuple(children), tuple(args.items()))
