"""Grouping/aggregation operators — one generated kernel per batch.

Each operator holds one aggregate kernel (:mod:`repro.engine.kernels`):
one loop over a batch's rows that builds the group key inline, finds or
opens the group, and advances every aggregate's state with inline
statements, so no Python call is made per row or per group.  With no
group columns every operator here emits exactly one row, over empty
input too.

* :class:`SortAggregate` ("Group Aggregate" in the paper's plans) —
  streaming aggregation over input sorted on *any permutation* of the
  group-by columns; emits each group as soon as it closes, preserves the
  input's order on the group columns, and needs no memory beyond one
  group (groups freely span batch boundaries).  Its flexible order
  requirement is exactly why grouping participates in the
  interesting-order problem.

* :class:`HashAggregate` — orderless fallback; charges spill I/O when
  the group table exceeds memory (which is why PostgreSQL's hash
  aggregate was the wrong pick for Query 3).

* :class:`SortedGroupCombine` — the final-combine stage of a *sharded*
  aggregation: per-shard partial aggregates arrive key-sorted (gathered
  by a :class:`~repro.engine.exchange.MergeExchange`), and groups split
  across shard boundaries are folded back together with the aggregate's
  combiner (``sum`` of partial sums/counts, ``min`` of partial minima, …).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..core.sort_order import SortOrder
from ..expr.aggregates import AggSpec, aggregate_output_schema
from ..expr.expressions import Col
from .batch import RowBatch, batches_of, drain_full
from .context import ExecutionContext
from .iterators import Operator, assert_sorted_batches
from .kernels import HASH_AGGREGATE, KERNELS, SORT_AGGREGATE

#: Aggregates whose partials combine exactly: the combiner applied to
#: per-shard results equals the aggregate over the whole group.  ``avg``
#: is deliberately absent (it would need a sum+count decomposition), so
#: the optimizer only shards aggregations it can recombine bit-exactly.
AGGREGATE_COMBINERS: dict[str, str] = {
    "sum": "sum",
    "count": "sum",
    "count_star": "sum",
    "min": "min",
    "max": "max",
}


def combinable(aggregates: Iterable[AggSpec]) -> bool:
    """Whether every aggregate in the list has an exact combiner."""
    return all(spec.func in AGGREGATE_COMBINERS for spec in aggregates)


def _sorted_groups(batches: Iterable[RowBatch], kernel, ctx: ExecutionContext
                   ) -> Iterator[RowBatch]:
    """Run a sort-aggregate *kernel* over *batches*, tallying one
    comparison per input row (the group-boundary test) in bulk."""
    counter, binds, size = ctx.comparisons, ctx.binds, ctx.batch_size
    carry: list = []
    out: list[tuple] = []
    for batch in batches:
        counter.value += len(batch.rows)
        out += kernel(batch.rows, binds, carry)
        if len(out) >= size:
            yield from drain_full(out, size)
    out += kernel(None, binds, carry)
    yield from batches_of(out, size)


class SortAggregate(Operator):
    """Streaming GROUP BY over sorted input.

    ``group_order`` is the permutation of grouping columns the input is
    sorted on (a prefix of the input's guaranteed order); groups close on
    a change of that key.  ``group_columns`` — defaulting to
    ``group_order`` — lists the columns emitted before the aggregates.
    It may be a *superset* of the sort key when the extra columns are
    functionally determined by it (Query 3 groups by ``ps_availqty,
    ps_partkey, ps_suppkey`` but needs to sort only on ``(ps_suppkey,
    ps_partkey)`` because ``{partkey, suppkey} → availqty``); their
    values are taken from the group's first row.
    """

    def __init__(self, child: Operator, group_order: SortOrder,
                 aggregates: Sequence[AggSpec],
                 group_columns: Optional[Sequence[str]] = None) -> None:
        if group_columns is None:
            group_columns = list(group_order)
        group_columns = list(group_columns)
        if not set(group_order) <= set(group_columns):
            raise ValueError("group_order must be a subset of group_columns")
        if not child.schema.has_all(group_columns):
            missing = set(group_columns) - set(child.schema.names)
            raise ValueError(f"group columns missing from input: {missing}")
        schema = aggregate_output_schema(group_columns, child.schema, list(aggregates))
        super().__init__(schema, [child])
        self.group_order = group_order
        self.group_columns = group_columns
        self.aggregates = list(aggregates)
        self._kernel = KERNELS.get(
            SORT_AGGREGATE, (tuple(group_order), tuple(group_columns),
                             tuple((spec.func, spec.arg) for spec in self.aggregates)),
            child.schema)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        child = self.children[0]
        batches: Iterable[RowBatch] = child.execute_batches(ctx)
        if ctx.check_orders:
            batches = assert_sorted_batches(
                batches, child.schema.positions(list(self.group_order)),
                "SortAggregate input")
        return _sorted_groups(batches, self._kernel, ctx)


class SortedGroupCombine(Operator):
    """Fold key-sorted *partial* aggregate rows into final groups.

    The input schema is an aggregate output schema (group columns first,
    then one column per aggregate) whose rows are per-shard partials,
    sorted/grouped on ``group_order``.  Adjacent rows sharing a group key
    — a group that straddled a shard boundary — are combined with each
    aggregate's combiner (:data:`AGGREGATE_COMBINERS`); a group entirely
    inside one shard passes through unchanged.  Output preserves the
    input's order and emits exactly one row per group, so the whole
    per-shard-aggregate → merge → combine pipeline is row-identical to a
    single aggregation over the merged input.
    """

    def __init__(self, child: Operator, group_order: SortOrder,
                 group_columns: Sequence[str],
                 aggregates: Sequence[AggSpec]) -> None:
        group_columns = list(group_columns)
        if not set(group_order) <= set(group_columns):
            raise ValueError("group_order must be a subset of group_columns")
        missing = [spec.func for spec in aggregates
                   if spec.func not in AGGREGATE_COMBINERS]
        if missing:
            raise ValueError(f"aggregates without an exact combiner: {missing}")
        expected = list(group_columns) + [s.output_name for s in aggregates]
        if list(child.schema.names) != expected:
            raise ValueError(
                f"combine input schema {list(child.schema.names)} does not "
                f"match group columns + aggregate outputs {expected}")
        super().__init__(child.schema, [child])
        self.group_order = group_order
        self.group_columns = group_columns
        self.aggregates = list(aggregates)
        self._kernel = KERNELS.get(
            SORT_AGGREGATE, (tuple(group_order), tuple(group_columns),
                             tuple((AGGREGATE_COMBINERS[spec.func], Col(spec.output_name))
                                   for spec in self.aggregates)),
            child.schema)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        return _sorted_groups(self.children[0].execute_batches(ctx),
                              self._kernel, ctx)


class HashAggregate(Operator):
    """Hash-based GROUP BY; no order requirement, no order guarantee.

    Its kernel folds each batch into one dict from group key to state
    slots, and the groups are emitted in the order they were first seen,
    under the key spelling their first row had.  When the group table
    exceeds sort memory, charges one spill write+read of the group state
    (the standard two-pass model).
    """

    def __init__(self, child: Operator, group_columns: Sequence[str],
                 aggregates: Sequence[AggSpec]) -> None:
        schema = aggregate_output_schema(list(group_columns), child.schema,
                                         list(aggregates))
        super().__init__(schema, [child])
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        self._kernel = KERNELS.get(
            HASH_AGGREGATE, (tuple(group_columns),
                             tuple((spec.func, spec.arg) for spec in self.aggregates)),
            child.schema)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        kernel, binds = self._kernel, ctx.binds
        groups: dict = {}
        for batch in self.children[0].execute_batches(ctx):
            kernel(batch.rows, binds, groups)

        state_bytes = len(groups) * self.schema.row_bytes
        if state_bytes > ctx.params.sort_memory_bytes:
            ctx.charge_grace(len(groups), self.schema.row_bytes)

        yield from batches_of(kernel(None, binds, groups), ctx.batch_size)

