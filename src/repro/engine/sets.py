"""Set operators: merge union, union-all, duplicate elimination —
batch-vectorized.

Merge union is the paper's second example (after merge join) of an
operator requiring *the same* sort order from multiple inputs — SYS2's
Query 4 plan was expensive precisely because its two left-outer joins
produced different orders, making the union's dedup costly.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..core.sort_order import SortOrder
from .batch import RowBatch, batches_of, gather, run_starts
from .context import ExecutionContext, key_lt
from .iterators import Operator, assert_sorted_batches


def _check_compatible(left: Operator, right: Operator, what: str) -> None:
    if len(left.schema) != len(right.schema):
        raise ValueError(f"{what}: inputs have different arity "
                         f"({len(left.schema)} vs {len(right.schema)})")


class UnionAll(Operator):
    """Bag union: concatenate the two inputs."""

    def __init__(self, left: Operator, right: Operator) -> None:
        _check_compatible(left, right, "UnionAll")
        super().__init__(left.schema, [left, right])

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        for child in self.children:
            yield from child.execute_batches(ctx)


class MergeUnion(Operator):
    """Duplicate-eliminating union of two inputs sorted on *order*.

    *order* must cover every output column (set semantics need a total
    comparison); both inputs must arrive sorted on it.  Output preserves
    the order — a favorable order for operators above.
    """

    def __init__(self, left: Operator, right: Operator, order: SortOrder) -> None:
        _check_compatible(left, right, "MergeUnion")
        if set(order) != set(left.schema.names):
            raise ValueError(
                f"MergeUnion order {order} must be a permutation of all "
                f"columns {left.schema.names}")
        super().__init__(left.schema, [left, right])
        self.order = order

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        # Both inputs share the left schema's column positions.
        positions = self.children[0].schema.positions(list(self.order))
        counter, size = ctx.comparisons, ctx.batch_size

        def keyed(child: Operator, what: str) -> Iterator[tuple[tuple, tuple]]:
            batches = child.execute_batches(ctx)
            if ctx.check_orders:
                batches = assert_sorted_batches(batches, positions, what)
            for batch in batches:
                counter.value += len(batch)  # one dedup test per input row
                yield from zip(batch.key_tuples(positions), batch.rows)

        lit = keyed(self.children[0], "MergeUnion left")
        rit = keyed(self.children[1], "MergeUnion right")
        left, right = next(lit, None), next(rit, None)
        last_key: Optional[tuple] = None
        out: list[tuple] = []
        while left is not None or right is not None:
            # Ties go left: take the right row only when it is smaller.
            if right is None or (left is not None
                                 and not key_lt(right[0], left[0])):
                key, row = left
                left = next(lit, None)
            else:
                key, row = right
                right = next(rit, None)
            if key != last_key:
                out.append(row)
                last_key = key
                if len(out) >= size:
                    yield RowBatch(out)
                    out = []
        if out:
            yield RowBatch(out)


class Dedup(Operator):
    """Streaming DISTINCT over input sorted on a permutation of all columns."""

    def __init__(self, child: Operator, order: SortOrder) -> None:
        if set(order) != set(child.schema.names):
            raise ValueError("Dedup order must cover every column")
        super().__init__(child.schema, [child])
        self.order = order

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        positions = self.schema.positions(list(self.order))
        batches = self.children[0].execute_batches(ctx)
        if ctx.check_orders:
            batches = assert_sorted_batches(batches, positions, "Dedup input")

        # Keys are compared only for equality, so the raw key tuples
        # from the batch suffice (no null-safe wrapping needed — tuple
        # equality already treats NULLs consistently).  A batch's
        # survivors are the first rows of its runs, less the first run
        # when it continues the previous batch's last key.
        last: Optional[tuple] = None
        for batch in batches:
            keys = batch.key_tuples(positions)
            ctx.comparisons.value += len(keys)  # one dedup test per input row
            starts = run_starts(keys)
            if keys[0] == last:
                del starts[0]
            last = keys[-1]
            if len(starts) == len(keys):
                yield batch
            elif starts:
                yield RowBatch(list(gather(batch.rows, starts)))


class HashDedup(Operator):
    """Hash-based DISTINCT; no order requirement."""

    def __init__(self, child: Operator) -> None:
        super().__init__(child.schema, [child])

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        seen: set[tuple] = set()
        distinct: list[tuple] = []
        for batch in self.children[0].execute_batches(ctx):
            for row in batch.rows:
                if row not in seen:
                    seen.add(row)
                    distinct.append(row)
        if len(distinct) * self.schema.row_bytes > ctx.params.sort_memory_bytes:
            ctx.charge_grace(len(distinct), self.schema.row_bytes)
        yield from batches_of(distinct, ctx.batch_size)
