"""Exchange operators: fan N shard streams back into one stream.

:class:`ExchangeUnion` is the gather side of a scan fan-out: its
children are the shards of one logical stream (the optimizer's sharded
plans put them there), and it concatenates their batches in shard order.
Because a sharded :class:`~repro.engine.scans.TableScan` partitions a
table into *contiguous* row ranges, concatenation in shard order
reproduces the unsharded scan's row sequence exactly, so everything
above the exchange is oblivious to the sharding.  Even so, the plan
claims no order for an ``ExchangeUnion`` (ε): an order above the gather
is enforced there, or below it by a ``MergeExchange``.

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
their results back under the same operators
(:mod:`repro.engine.subplan`).  Where an enforcer goes relative to an
exchange is the optimizer's decision alone; the engine runs the plan it
is given.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from ..core.sort_order import SortOrder
from .batch import RowBatch, batches_of, flatten_batches
from .context import ExecutionContext
from .iterators import Operator, assert_sorted_batches
from .sorting import merge_sorted_streams


class ExchangeUnion(Operator):
    """Concatenate N shard streams in shard order."""

    def __init__(self, children: Sequence[Operator]) -> None:
        if not children:
            raise ValueError("ExchangeUnion needs at least one child")
        first = children[0].schema
        for child in children[1:]:
            if child.schema.names != first.names:
                raise ValueError("ExchangeUnion children must share a schema")
        super().__init__(first, children)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        for child in self.children:
            yield from child.execute_batches(ctx)


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
        super().__init__(first, children)
        self.order = order
        #: The plan node's ``disjoint`` arg, proved by the planner from
        #: the catalog's partitioning and the only witness that survives
        #: re-assembly over :class:`~repro.engine.subplan.TaskSource`
        #: children.  The engine does not second-guess it;
        #: ``ctx.check_orders`` verifies the concatenated output.
        self.partition_disjoint = disjoint

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        streams = [child.execute_batches(ctx) for child in self.children]
        positions = self.schema.positions(list(self.order))
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
