"""Exchange operators: fan N shard streams back into one stream.

:class:`ExchangeUnion` is the gather side of a scan fan-out: its
children are the shards of one logical stream (the optimizer's sharded
plans put them there), and it concatenates their batches in shard order.
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

from itertools import chain
from typing import Iterator, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from .basic import Compute, Filter, Project
from .batch import RowBatch, batches_of, flatten_batches
from .context import ExecutionContext
from .iterators import Operator, assert_sorted_batches
from .scans import RangePartitionScan, TableScan
from .sorting import merge_sorted_streams


def _common_contiguous_order(children: Sequence[Operator]):
    """The order preserved by concatenating *children* in sequence.

    Guaranteed when the children are consecutive contiguous shards of one
    table (the shape a sharded plan's fan-out lowers to), or the full set of
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
    comparisons per row, independent of the batch size.  *disjoint* is
    the planner's declaration that the children are ascending partitions
    disjoint on the leading merge column; the gather then concatenates
    instead of merging.
    """

    name = "MergeExchange"

    def __init__(self, children: Sequence[Operator], order: SortOrder,
                 disjoint: bool = False) -> None:
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
        #: The plan node's ``disjoint`` arg, proved by the planner from
        #: the catalog's partitioning and the only witness that survives
        #: re-assembly over :class:`~repro.engine.subplan.StreamSource`
        #: children.  The engine does not second-guess it;
        #: ``ctx.check_orders`` verifies the concatenated output.
        self.partition_disjoint = disjoint

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
            out: Iterator[RowBatch] = chain.from_iterable(streams)
            if ctx.check_orders:
                out = assert_sorted_batches(
                    out, positions, "MergeExchange disjoint concat output")
            return out
        return batches_of(flatten_batches(
            merge_sorted_streams(streams, positions, ctx)), ctx.batch_size)

    def details(self) -> str:
        suffix = ", disjoint concat" if self.partition_disjoint else ""
        return f"{len(self.children)} shards on {self.output_order}{suffix}"


#: Per-row unaries that commute with sharding, by plan-op name: applying
#: them to each contiguous shard and concatenating equals applying them to
#: the whole stream, and each shard's output order equals the whole-stream
#: order.  The optimizer's shard-aware enforcer placement imports this to
#: decide which shapes are shard-transparent.
ORDER_PRESERVING_UNARY_OPS = (Filter.name, Project.name, Compute.name)
