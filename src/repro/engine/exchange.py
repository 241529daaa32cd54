"""Exchange operators: fan N shard streams back into one stream.

:class:`ExchangeUnion` is the gather side of a scan fan-out: its
children are the shards of one logical stream (built by
:func:`shard_scans`), and it concatenates their batches in shard order.
Because :class:`~repro.engine.scans.ShardedScan` partitions a table into
*contiguous* row ranges, concatenation in shard order reproduces the
unsharded scan's row sequence exactly — including its clustering order —
so everything above the exchange is oblivious to the sharding.

:class:`MergeExchange` is the *order-preserving* gather: its children
each deliver rows already sorted on the merge order (typically per-shard
SRS/MRS enforcers over the shards), and it performs a stable k-way
merge — ties go to the lowest shard index, so the output is bit-identical
to a stable full sort of the shards concatenated in shard order.  This
is what lets a required order be enforced *below* the exchange, shard by
shard, instead of by one big post-union sort (the shard-aware enforcer
placement; see docs/execution.md).

Both exchanges pull their children lazily on the calling thread, so the
gather stays pipelined and an early-terminating consumer stops paying.
Multi-core execution does not happen here: the process backend cuts a
plan at its exchanges, runs the children in pool workers and grafts
their streams back under the same operators
(:mod:`repro.engine.subplan`).  Where an enforcer goes relative to an
exchange is the optimizer's decision alone; the engine runs the plan it
is given.
"""

from __future__ import annotations

import copy
from itertools import chain
from typing import Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from .basic import Compute, Filter, Project, Sort
from .batch import RowBatch, batches_of, flatten_batches
from .context import ExecutionContext
from .iterators import Operator, assert_sorted_batches
from .scans import (
    ClusteringIndexScan,
    RangePartitionScan,
    ShardedScan,
    TableScan,
    range_shardable,
    shardable,
)
from .sorting import merge_sorted_streams


def _common_contiguous_order(children: Sequence[Operator]):
    """The order preserved by concatenating *children* in sequence.

    Guaranteed when the children are consecutive contiguous shards of one
    table (the shape :func:`shard_scans` builds), or the full set of
    range partitions of a table *clustered on the partition column* (the
    partitions then tile the clustered row sequence); anything else gets
    ε — concatenating independently sorted streams is not sorted.
    """
    if all(isinstance(c, RangePartitionScan) for c in children):
        table = children[0].table  # type: ignore[attr-defined]
        if (not table.partition_contiguous
                or table.partitioning.num_partitions != len(children)):
            return EMPTY_ORDER
        for i, child in enumerate(children):
            if child.table is not table or child.partition_index != i:  # type: ignore[attr-defined]
                return EMPTY_ORDER
        return children[0].output_order
    if not all(isinstance(c, TableScan) for c in children):
        return EMPTY_ORDER
    table = children[0].table  # type: ignore[attr-defined]
    count = children[0].shard_count  # type: ignore[attr-defined]
    if count != len(children):
        return EMPTY_ORDER
    for i, child in enumerate(children):
        if (child.table is not table or child.shard_count != count
                or child.shard_index != i):  # type: ignore[attr-defined]
            return EMPTY_ORDER
    return children[0].output_order


class ExchangeUnion(Operator):
    """Concatenate N shard streams in shard order (order-preserving
    gather for contiguous shards)."""

    name = "ExchangeUnion"

    def __init__(self, children: Sequence[Operator]) -> None:
        if not children:
            raise ValueError("ExchangeUnion needs at least one child")
        first = children[0].schema
        for child in children[1:]:
            if child.schema.names != first.names:
                raise ValueError("ExchangeUnion children must share a schema")
        super().__init__(first, _common_contiguous_order(children), children)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        for child in self.children:
            yield from child.execute_batches(ctx)

    def details(self) -> str:
        return f"{len(self.children)} shards"


class MergeExchange(Operator):
    """Order-preserving gather: stable k-way merge of per-shard sorted
    streams.

    Every child must deliver rows sorted on *order* (enforced at run time
    under ``ctx.check_orders``).  The merge is stable — equal keys come
    out in shard order, and within a shard in arrival order — so the
    output is bit-identical to what a stable full sort over the
    concatenation of the children (in child order) would produce.  The
    merge (:func:`~repro.engine.sorting.merge_sorted_streams`) works a
    round of head batches at a time and tallies ``ceil(log2 k)``
    comparisons per row, independent of the batch size.
    """

    name = "MergeExchange"

    def __init__(self, children: Sequence[Operator], order: SortOrder,
                 declared_disjoint: bool = False) -> None:
        if not children:
            raise ValueError("MergeExchange needs at least one child")
        if not order:
            raise ValueError("MergeExchange needs a non-empty merge order")
        first = children[0].schema
        for child in children[1:]:
            if child.schema.names != first.names:
                raise ValueError("MergeExchange children must share a schema")
        if not first.has_all(list(order)):
            missing = set(order) - set(first.names)
            raise ValueError(f"merge order references missing columns {missing}")
        super().__init__(first, order, children)
        #: A planner-declared disjointness guarantee.  Re-assembled
        #: serving gathers put :class:`~repro.engine.subplan.StreamSource`
        #: children under the exchange, which carry no
        #: partition bounds for :func:`partitions_disjoint_on` to
        #: re-detect — the plan node's ``disjoint`` arg is the only
        #: surviving witness, so lowering and re-assembly pass it here.
        self.declared_disjoint = declared_disjoint

    @property
    def partition_disjoint(self) -> bool:
        """Whether the children are ascending range partitions disjoint on
        the leading merge column — concatenation is then already globally
        sorted and the k-way merge (with its ``N·log2(k)`` comparisons) is
        skipped entirely.  Either declared by the planner (which proved it
        from the catalog's partitioning) or re-detected from the operator
        shape, so hand-built pipelines get the same fast path."""
        return (self.declared_disjoint
                or partitions_disjoint_on(self.children, self.output_order))

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        streams = [child.execute_batches(ctx) for child in self.children]
        positions = self.schema.positions(list(self.output_order))
        if ctx.check_orders:
            streams = [assert_sorted_batches(s, positions,
                                             f"MergeExchange input shard {i}")
                       for i, s in enumerate(streams)]
        if self.partition_disjoint:
            # Disjoint ascending partitions: the per-shard sorted batches,
            # passed through in shard order, are already the global order
            # — no comparisons, no re-chunking.
            return chain.from_iterable(streams)
        return batches_of(flatten_batches(
            merge_sorted_streams(streams, positions, ctx)), ctx.batch_size)

    def details(self) -> str:
        suffix = ", disjoint concat" if self.partition_disjoint else ""
        return f"{len(self.children)} shards on {self.output_order}{suffix}"


def shard_scans(op: Operator, shard_count: int) -> Operator:
    """Rewrite full table scans into ExchangeUnion-of-ShardedScan fan-outs.

    Non-destructive: the caller's tree is never touched.  Operators on
    the path to a replaced scan are shallow-copied with rebuilt child
    tuples (the replacement has the same schema and output order, so
    parents' precomputed positions stay valid); untouched subtrees are
    shared.  Re-running or re-sharding the original tree at a different
    parallelism therefore behaves identically.  Scans already sharded,
    stats-only tables and covering-index scans are left alone.
    """
    if shard_count < 2:
        return op
    if (isinstance(op, (TableScan, ClusteringIndexScan))
            and not isinstance(op, (ShardedScan, RangePartitionScan))
            and getattr(op, "shard_count", 1) == 1
            and shardable(op.table, shard_count)):
        # A clustered-contiguous range partitioning that matches the
        # requested width shards along partition boundaries instead of
        # equal row counts: the partitions tile the clustered sequence,
        # so concatenation stays exact.
        if (range_shardable(op.table) and op.table.partition_contiguous
                and op.table.partitioning.num_partitions == shard_count):
            shards: list[Operator] = [RangePartitionScan(op.table, i)
                                      for i in range(shard_count)]
        else:
            shards = [ShardedScan(op.table, shard_count, i)
                      for i in range(shard_count)]
        exchange = ExchangeUnion(shards)
        # The replaced scan's row meter (if lowering stamped one) moves to
        # the gather, which emits the same rows — estimated-vs-actual
        # tallies stay identical across parallelism settings.
        exchange._meter = op._meter
        return exchange
    new_children = tuple(shard_scans(c, shard_count) for c in op.children)
    if all(new is old for new, old in zip(new_children, op.children)):
        return op
    clone = copy.copy(op)
    clone.children = new_children
    return clone


#: Per-row unaries that commute with sharding: applying them to each
#: contiguous shard and concatenating equals applying them to the whole
#: stream, and each shard's output order equals the whole-stream order.
_ORDER_PRESERVING_UNARIES = (Filter, Project, Compute)

#: The same whitelist by plan-op name — the optimizer's shard-aware
#: enforcer placement imports this, so the search and the engine's
#: partition-bound detection agree on which shapes are shard-transparent.
ORDER_PRESERVING_UNARY_OPS = tuple(cls.name for cls in _ORDER_PRESERVING_UNARIES)


def _partition_leaf(op: Operator) -> Optional[RangePartitionScan]:
    """The :class:`RangePartitionScan` under a chain of partition-bound
    preserving unaries, else ``None``.

    Filter/Project/Compute/Sort never move a row's partition-column value
    outside its partition's range, and a streaming group-aggregate emits
    group-column values taken from its input rows — so any such chain
    over a partition scan stays within the partition's value bounds.  A
    merge join is descended through its *left* input: output rows (and
    LEFT OUTER padding) take their left-column values from left input
    rows, so a left-side partition bound survives the join.
    """
    from .aggregates import SortAggregate
    from .joins import MergeJoin

    node = op
    while True:
        if (len(node.children) == 1
                and isinstance(node, _ORDER_PRESERVING_UNARIES
                               + (Sort, SortAggregate))):
            node = node.children[0]
        elif isinstance(node, MergeJoin) and node.join_type in ("inner", "left"):
            node = node.children[0]
        else:
            break
    return node if isinstance(node, RangePartitionScan) else None


def partitions_disjoint_on(children: Sequence[Operator], order: SortOrder) -> bool:
    """Whether *children* are ascending range partitions of one table,
    mutually disjoint on the leading attribute of *order*.

    This is the partition-aware merge condition: every row of child *i*
    compares ≤ every row of child *i+1* on the merge key, so the gather
    can concatenate instead of merging.  Shared with the optimizer's
    cost model via the plans it builds (the engine re-detects the shape
    at run time, so hand-built pipelines get the same fast path).
    """
    if not order or len(children) < 2:
        return False
    leaves = [_partition_leaf(c) for c in children]
    if any(leaf is None for leaf in leaves):
        return False
    table = leaves[0].table
    if any(leaf.table is not table for leaf in leaves):
        return False
    indexes = [leaf.partition_index for leaf in leaves]
    if any(b <= a for a, b in zip(indexes, indexes[1:])):
        return False
    return order.as_tuple[0] == table.partitioning.column
