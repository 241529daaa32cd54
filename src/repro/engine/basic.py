"""Tuple-transforming operators: filter, project, compute, sort
enforcers, limit — batch-vectorized, with generated row kernels.

Filter and compute each build **one kernel, at construction** (through
the process-global kernel cache, see :mod:`repro.engine.kernels`): a
generated function that runs the operator's expressions over a whole
batch's rows.  Every batch, whatever its size, costs one kernel call,
``kernel(batch.rows, ctx.binds)``, with the execution's parameter values
as an argument.  Selective operators emit one (possibly smaller) batch
per input batch instead of re-buffering.

``Sort`` is the order *enforcer* of the paper: lowering hands it the
target order and the prefix of it the input already delivers (the plan's
``prefix`` arg), and it runs MRS (partial sort) exactly when that prefix
is non-empty, SRS (full sort) otherwise.  MRS finds its segments a batch
at a time on raw keys (SRS keeps its row-at-a-time selection heap);
comparison and I/O tallies are independent of the batch size either way.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..expr.expressions import Expression, Predicate
from ..storage.schema import Column, Schema
from .batch import RowBatch
from .context import ExecutionContext
from .iterators import Operator, assert_sorted_batches
from .kernels import COMPUTE, FILTER, KERNELS
from .sorting import sort_batches


class Filter(Operator):
    """σ: keep rows satisfying a predicate; preserves input order."""

    def __init__(self, child: Operator, predicate: Predicate) -> None:
        if not child.schema.has_all(predicate.columns()):
            missing = set(predicate.columns()) - set(child.schema.names)
            raise ValueError(f"filter references missing columns {missing}")
        super().__init__(child.schema, [child])
        self.predicate = predicate
        self._kernel = KERNELS.get(FILTER, (predicate,), child.schema)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        kernel, binds = self._kernel, ctx.binds
        for batch in self.children[0].execute_batches(ctx):
            kept = kernel(batch.rows, binds)
            if kept:
                yield RowBatch(kept)


class Project(Operator):
    """π: positional projection to a subset of columns."""

    def __init__(self, child: Operator, columns: Sequence[str]) -> None:
        super().__init__(child.schema.project(list(columns)), [child])
        self._positions = child.schema.positions(list(columns))
        self._identity = list(self._positions) == list(range(len(child.schema)))

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        child = self.children[0]
        if self._identity:
            # Pure rename: pass batches through untouched (zero copies).
            return child.execute_batches(ctx)
        positions = self._positions
        return (batch.project(positions)
                for batch in child.execute_batches(ctx))


class Compute(Operator):
    """Extend each row with computed expressions (e.g. Quantity*Price).

    Appends one column per ``(name, expression)`` pair; preserves order.
    With no pairs the input batches pass through.
    """

    def __init__(self, child: Operator, outputs: Sequence[tuple[str, Expression]],
                 output_size: int = 8) -> None:
        new_cols = [Column(name, "num", output_size) for name, _ in outputs]
        schema = Schema(list(child.schema) + new_cols)
        super().__init__(schema, [child])
        self.outputs = list(outputs)
        self._kernel = (KERNELS.get(COMPUTE, [e for _, e in self.outputs],
                                    child.schema) if self.outputs else None)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        child = self.children[0]
        if not self.outputs:
            return child.execute_batches(ctx)
        kernel, binds = self._kernel, ctx.binds
        return (RowBatch(kernel(batch.rows, binds))
                for batch in child.execute_batches(ctx))


class Sort(Operator):
    """Order enforcer: sort the input to *target_order*.

    *known_prefix* is the prefix of *target_order* the input already
    delivers — the paper's partial sort enforcer ``o' → o`` (MRS) when
    non-empty, a full sort (SRS) when empty.
    """

    def __init__(self, child: Operator, target_order: SortOrder,
                 known_prefix: SortOrder = EMPTY_ORDER) -> None:
        if not child.schema.has_all(list(target_order)):
            missing = set(target_order) - set(child.schema.names)
            raise ValueError(f"sort references missing columns {missing}")
        super().__init__(child.schema, [child])
        self.target_order = target_order
        self.known_prefix = known_prefix

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        batches = self.children[0].execute_batches(ctx)
        if ctx.check_orders and self.known_prefix:
            batches = assert_sorted_batches(
                batches, self.schema.positions(list(self.known_prefix)),
                f"Sort input (known prefix {self.known_prefix})")
        out = sort_batches(batches, self.schema, self.target_order, ctx,
                           known_prefix=self.known_prefix)
        if ctx.check_orders:
            out = assert_sorted_batches(
                out, self.schema.positions(list(self.target_order)), "Sort output")
        return out


class Limit(Operator):
    """Pass through the first *k* rows (ORDER BY ... LIMIT k on sorted input).

    Stops pulling from the child once *k* rows arrived — early
    termination at batch granularity, so upstream stops paying I/O.
    """

    def __init__(self, child: Operator, k: int) -> None:
        if k < 0:
            raise ValueError("limit must be non-negative")
        super().__init__(child.schema, [child])
        self.k = k

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        remaining = self.k
        if remaining == 0:
            return
        for batch in self.children[0].execute_batches(ctx):
            if len(batch) < remaining:
                remaining -= len(batch)
                yield batch
            else:
                yield batch.head(remaining)
                return
