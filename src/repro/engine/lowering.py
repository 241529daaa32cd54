"""Lower optimizer :class:`~repro.optimizer.plans.PhysicalPlan` trees to
executable engine operators (once per cached plan: see
:mod:`repro.engine.prepared`).

A physical operator is stated in two places: its
:class:`~repro.optimizer.manual.PlanBuilder` constructor and its row of
:data:`LOWERINGS` — the engine class, what it is built from in
constructor order, and the node's EXPLAIN detail.  In a row, ``order``
is the node's order (the constructor's claim: operators declare none of
their own), ``table`` and ``index`` are looked up in the catalog,
``children`` hands over the lowered children as one list (else they
lead, positionally), and any other name is the node's arg of that name;
``tests/test_pipeline_enumerators.py::test_every_planned_node_is_what_the_builder_makes_of_its_children``
holds each row's reads to the args its constructor writes.

Args hold expressions, never compiled code: the expression-bearing
operators compile their kernels when lowering constructs them
(:mod:`repro.engine.kernels`).  Row meters are tagged by ``plan.op``
(:func:`meter_for`), not by the operator.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, TYPE_CHECKING

from ..core.sort_order import SortOrder
from .aggregates import HashAggregate, SortAggregate, SortedGroupCombine
from .basic import Compute, Filter, Limit, Project, Sort
from .exchange import ExchangeUnion, MergeExchange
from .iterators import Operator
from .joins import HashJoin, MergeJoin
from .scans import CoveringIndexScan, RangePartitionScan, TableScan
from .sets import Dedup, HashDedup, MergeUnion, UnionAll

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.catalog import Catalog


class Lowering(NamedTuple):
    """One plan op's engine operator and EXPLAIN detail."""

    engine: Callable[..., Operator]
    #: The engine constructor's arguments after the leading children.
    args: tuple[str, ...] = ()
    detail: Callable[[Any], str] = lambda plan: ""


def _partial_sort(child: Operator, order, prefix) -> Sort:
    """A ``PartialSort`` is a :class:`Sort` told its input's known
    prefix; without one it would silently run as a full sort."""
    if not prefix:
        raise ValueError("PartialSort plan without a known prefix")
    return Sort(child, order, known_prefix=prefix)


def _outer(plan) -> str:
    join_type = plan.arg("join_type")
    return f" [{join_type} outer]" if join_type in ("left", "full") else ""


#: Every physical plan op, keyed by name.
LOWERINGS: dict[str, Lowering] = {
    "TableScan": Lowering(TableScan, ("table",), lambda p: p.arg("table")),
    "ClusteringIndexScan": Lowering(TableScan, ("table",),
                                    lambda p: f"{p.arg('table')} {p.order}"),
    "ShardedScan": Lowering(TableScan, ("table", "shard_count", "shard_index"),
                            lambda p: f"{p.arg('table')} shard "
                            f"{p.arg('shard_index')}/{p.arg('shard_count')}"),
    "RangePartitionScan": Lowering(
        RangePartitionScan, ("table", "partition_index"),
        lambda p: f"{p.arg('table')} partition "
        f"{p.arg('partition_index')}/{p.arg('partition_count')}"),
    "CoveringIndexScan": Lowering(
        CoveringIndexScan, ("index",),
        lambda p: f"{p.arg('table')}.{p.arg('index')} {p.order}"),
    "ExchangeUnion": Lowering(ExchangeUnion, ("children",),
                              lambda p: f"{len(p.children)} shards"),
    "MergeExchange": Lowering(MergeExchange, ("children", "order", "disjoint"),
                              lambda p: f"{len(p.children)} shards on {p.order}"
                              + (", disjoint concat" if p.arg("disjoint") else "")),
    "Filter": Lowering(Filter, ("predicate",), lambda p: f"{p.arg('predicate')}"),
    "Project": Lowering(Project, ("columns",), lambda p: ", ".join(p.schema.names)),
    "Compute": Lowering(Compute, ("outputs",),
                        lambda p: ", ".join(n for n, _ in p.arg("outputs"))),
    "Sort": Lowering(Sort, ("order", "prefix"), lambda p: f"ε --> {p.order}"),
    "PartialSort": Lowering(_partial_sort, ("order", "prefix"),
                            lambda p: f"{p.arg('prefix')} --> {p.order}"),
    # The merge key, not the output order: a FULL OUTER join claims none.
    "MergeJoin": Lowering(MergeJoin, ("predicate", "join_type"),
                          lambda p: f"{p.arg('predicate')} on "
                          f"{SortOrder(p.arg('predicate').left_columns)}{_outer(p)}"),
    "HashJoin": Lowering(HashJoin, ("predicate", "join_type"),
                         lambda p: f"{p.arg('predicate')}{_outer(p)}"),
    "SortAggregate": Lowering(SortAggregate, ("order", "aggregates", "group_columns"),
                              lambda p: f"by {p.order}"),
    "SortedCombine": Lowering(SortedGroupCombine,
                              ("order", "group_columns", "aggregates"),
                              lambda p: f"combine by {p.order}"),
    "HashAggregate": Lowering(HashAggregate, ("group_columns", "aggregates"),
                              lambda p: f"by {{{', '.join(p.arg('group_columns'))}}}"),
    "MergeUnion": Lowering(MergeUnion, ("order",), lambda p: f"on {p.order}"),
    "UnionAll": Lowering(UnionAll),
    "Dedup": Lowering(Dedup, ("order",), lambda p: f"on {p.order}"),
    "HashDedup": Lowering(HashDedup),
    "Limit": Lowering(Limit, ("k",), lambda p: f"{p.arg('k')}"),
}

#: Ops whose meter tag carries the scanned table's name (the rows that
#: read the catalog), so serving-time feedback can attribute actual row
#: counts back to catalog tables.
_TABLE_SCAN_OPS = frozenset(op for op, row in LOWERINGS.items()
                            if {"table", "index"} & set(row.args))


def meter_for(plan) -> Optional[tuple]:
    """The ``(tag, estimated_rows)`` meter for one plan node.

    Scan tags embed the table name (``"TableScan:orders"``); everything
    else meters under its op name.  Estimates are rounded to integers so
    per-shard contributions sum commutatively — the order worker
    tallies are absorbed in cannot change the totals.
    """
    stats = getattr(plan, "stats", None)
    if stats is None:
        return None
    tag = plan.op
    if tag in _TABLE_SCAN_OPS:
        tag = f"{tag}:{plan.arg('table')}"
    return (tag, int(stats.N + 0.5))


def _resolve(name: str, plan, children: list, catalog: "Catalog") -> Any:
    if name == "children":
        return children
    if name == "order":
        return plan.order
    if name == "table":
        return catalog.table(plan.arg("table"))
    if name == "index":
        return catalog.index(plan.arg("table"), plan.arg("index"))
    return plan.arg(name)


def lower_node(plan, children: list[Operator], catalog: "Catalog") -> Operator:
    """The engine operator of the one plan node *plan* over the already
    lowered *children*, carrying its :func:`meter_for` stamp so
    executions report estimated-vs-actual rows per operator through
    ``ExecutionContext.tallies()``."""
    row = LOWERINGS.get(plan.op)
    if row is None:
        raise ValueError(f"cannot lower unknown plan op {plan.op!r}")
    args = [_resolve(name, plan, children, catalog) for name in row.args]
    leading = () if "children" in row.args else children
    operator = row.engine(*leading, *args)
    operator._meter = meter_for(plan)
    return operator


def operators_from_plan(plan, catalog: "Catalog",
                        replace: Optional[Callable[..., Optional[Operator]]] = None
                        ) -> Operator:
    """Recursively build the engine operator tree for *plan* through
    :func:`lower_node`.

    *replace*, when given, is consulted on every plan node **before**
    default lowering; returning an operator substitutes the whole
    subtree (its children are not lowered; the hook stamps its own row
    meters, if any).  The process-pool backend uses this to graft
    pre-executed shard results back into the plan
    (:mod:`repro.engine.subplan`).
    """
    if replace is not None:
        substituted = replace(plan)
        if substituted is not None:
            return substituted
    return lower_node(plan, [operators_from_plan(c, catalog, replace)
                             for c in plan.children], catalog)
