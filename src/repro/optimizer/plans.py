"""Physical plans.

A :class:`PhysicalPlan` is an immutable costed plan node: the tuple of
its fields, its subtree cost among them, so building one is cheap.
Trees of them are what the optimizer searches over and what phase-2
refinement rewrites.  Unlike the engine's operators, physical plans
carry statistics and estimated costs, so stats-only catalogs (the
paper-scale optimizer experiments) can be planned without any data.  A
node's op names its row of :data:`~repro.engine.lowering.LOWERINGS`,
which gives the node's EXPLAIN detail and, for materialised catalogs,
the engine operator :meth:`PhysicalPlan.to_operator` lowers it to.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

from ..core.sort_order import SortOrder
from ..engine.lowering import LOWERINGS, operators_from_plan
from ..storage.schema import Schema
from ..storage.statistics import StatsView

#: The constructor's fields, in order; ``total_cost`` follows them.
_INIT_FIELDS = ("op", "schema", "order", "stats", "self_cost", "children",
                "args")
_total_cost = attrgetter("total_cost")


class PhysicalPlan(namedtuple("PlanFields", (*_INIT_FIELDS, "total_cost"))):
    """One physical operator with children, statistics and cost.

    ``args`` holds operator-specific payload (table name, predicate,
    known prefix, …) keyed by convention per ``op``: written by the op's
    constructor on :class:`~repro.optimizer.manual.PlanBuilder`, read by
    the op's row of :data:`~repro.engine.lowering.LOWERINGS`, which also
    gives the node's EXPLAIN detail.

    A node *is* the tuple of its seven constructor fields and
    ``total_cost``, the subtree cost fixed at construction (children are
    immutable): the search compares it per candidate, so it is never
    re-walked.  Field reads, ``==`` and ``hash`` are the tuple's own, and
    building one runs no per-field Python code.  :meth:`_replace` is the
    one way to copy a node with changes, and derives the total anew.
    """

    __slots__ = ()

    def __new__(cls, op: str, schema: Schema, order: SortOrder,
                stats: StatsView, self_cost: float,
                children: tuple["PhysicalPlan", ...] = (),
                args: tuple[tuple[str, Any], ...] = ()) -> "PhysicalPlan":
        return tuple.__new__(cls, (
            op, schema, order, stats, self_cost, children, args,
            self_cost + sum(map(_total_cost, children))))

    def __reduce__(self):
        # Constructor arguments only: the derived total is recomputed on
        # load instead of travelling in every pickled shard task.
        return (PhysicalPlan, self[:-1])

    @classmethod
    def _make(cls, fields: Iterable) -> "PhysicalPlan":
        """The node of the seven constructor *fields*: a total is never
        taken, always derived."""
        return cls(*fields)

    def _replace(self, **changes: Any) -> "PhysicalPlan":
        """This node with *changes* to its constructor fields, its total
        cost derived anew."""
        node = self._make(map(changes.pop, _INIT_FIELDS, self))
        if changes:
            raise ValueError(f"not a constructor field: {sorted(changes)}")
        return node

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


def make_plan(op: str, schema: Schema, order: SortOrder, stats: StatsView,
              self_cost: float, children: Sequence[PhysicalPlan] = (),
              **args: Any) -> PhysicalPlan:
    """Node shorthand; :class:`PlanBuilder` is its only caller here."""
    return PhysicalPlan(op, schema, order, stats, float(self_cost),
                        tuple(children), tuple(args.items()))
