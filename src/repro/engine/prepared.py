"""A prepared plan as an executable: lowered once, run with any values.

:class:`PreparedPlan` is what the serving layer's plan cache holds: the
optimized plan, its parameter names and, from the first execution on,
its lowered operator tree.  Nothing in that tree depends on a bind
value, operators keep no per-execution state on ``self``, and every
execution charges its own :class:`~repro.engine.context.ExecutionContext`,
so one tree serves every execution of the entry, from any thread, and
dies with the entry (version token, LRU, TTL).  :class:`BoundPlan` is
that entry plus one execution's values — what ``PreparedQuery.bind``
returns and every backend runs; :class:`BoundRoot` is how the values
reach the context of whoever runs the tree.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, TYPE_CHECKING

from .context import ExecutionContext
from .iterators import Operator
from .lowering import operators_from_plan

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.catalog import Catalog


class BoundRoot(Operator):
    """A lowered tree under one execution's parameter values: puts them
    into whatever context it is run with, and is otherwise its child."""

    name = "Bound"

    def __init__(self, child: Operator, binds: Mapping[str, Any]) -> None:
        super().__init__(child.schema, child.output_order, [child])
        self.binds = binds

    def execute_batches(self, ctx: ExecutionContext):
        ctx.binds = self.binds
        return self.children[0].execute_batches(ctx)

    def details(self) -> str:
        return ", ".join(f":{name}={value!r}"
                         for name, value in self.binds.items())


class PreparedPlan:
    """A plan-cache entry's value: an optimized plan as an executable.

    Holds the plan, the parameter names an execution must bind and —
    lowered lazily by the first execution, never at prepare — the
    operator tree every later execution shares.  Two threads racing on
    the first execution each lower a tree and one of them is kept; both
    are correct.  Only ``plan`` and ``param_names`` pickle.
    """

    __slots__ = ("plan", "param_names", "shards", "_lowered")

    def __init__(self, plan, param_names: frozenset = frozenset()) -> None:
        self.plan = plan
        self.param_names = param_names
        #: ``(occurrences, task templates)``: this plan cut at its
        #: exchanges and stripped for shipping, filled in once by
        #: :func:`~repro.engine.subplan.shard_subplans`.
        self.shards: Optional[tuple] = None
        self._lowered: Optional[tuple] = None  # (catalog, operator tree)

    def __reduce__(self):
        return (PreparedPlan, (self.plan, self.param_names))

    def operator(self, catalog: "Catalog") -> Operator:
        """The lowered tree against *catalog*, built on first use."""
        lowered = self._lowered
        if lowered is None or lowered[0] is not catalog:
            lowered = self._lowered = (
                catalog, operators_from_plan(self.plan, catalog))
        return lowered[1]


class BoundPlan:
    """A :class:`PreparedPlan` plus one execution's parameter values.

    The template is shared and never rewritten; the values travel beside
    it — into the context of an in-process run, into the pickle of a
    shard task.  Runs wherever a ``PhysicalPlan`` does: ``to_operator``,
    ``execute``, both backends' ``run_plan``, ``shard_subplans``.
    """

    __slots__ = ("prepared", "binds")

    def __init__(self, prepared: PreparedPlan,
                 binds: Mapping[str, Any]) -> None:
        self.prepared = prepared
        self.binds = binds

    def __reduce__(self):
        return (BoundPlan, (self.prepared, self.binds))

    @property
    def plan(self):
        """The template :class:`~repro.optimizer.plans.PhysicalPlan`."""
        return self.prepared.plan

    def to_operator(self, catalog: "Catalog") -> Operator:
        """The entry's shared tree under a root carrying these binds."""
        return BoundRoot(self.prepared.operator(catalog), self.binds)

    def execute(self, catalog: "Catalog",
                ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        """Run the shared tree with these binds, returning all rows."""
        ctx = ctx or ExecutionContext(catalog)
        ctx.binds = self.binds
        return self.prepared.operator(catalog).run(ctx)
