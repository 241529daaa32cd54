"""Tuple-transforming operators: filter, project, compute, sort
enforcers, limit — batch-vectorized, with whole-column kernel paths.

Filter, project and compute compile their expressions **once, at
construction** (through the process-global kernel cache, or from the
bundle a prepared plan carries — see :mod:`repro.engine.kernels`), in
two forms: a row function and a whole-column batch kernel; an
expression holding query parameters is specialised on the execution's
values when ``execute_batches`` starts.  At run time
a batch that is already column-backed, or holds at least
:data:`~repro.engine.batch.COLUMNAR_MIN_ROWS` rows, is evaluated
columnar — one kernel call per batch instead of one Python call per row;
tiny row-backed batches use the row loop, whose output is bit-identical.
Selective operators emit one (possibly smaller) batch per input batch
instead of re-buffering.

``Sort`` is the order *enforcer* of the paper: it knows both the target
order and the order already guaranteed by its input, and picks MRS
(partial sort) whenever a non-empty prefix is available — unless
explicitly forced to behave like the standard engines of Experiment A1
(``algorithm="srs"``).  MRS finds its segments a batch at a time on raw
keys (SRS keeps its row-at-a-time selection heap); comparison and I/O
tallies are independent of the batch size either way.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder, longest_common_prefix
from ..expr.expressions import Expression, Predicate
from ..storage.schema import Column, Schema
from .batch import COLUMNAR_MIN_ROWS, RowBatch
from .context import ExecutionContext
from .iterators import Operator, assert_sorted_batches
from .kernels import OperatorKernels, bound_kernels, compile_kernels
from .sorting import sort_batches


class Filter(Operator):
    """σ: keep rows satisfying a predicate; preserves input order."""

    name = "Filter"

    def __init__(self, child: Operator, predicate: Predicate,
                 kernels: Optional[OperatorKernels] = None) -> None:
        if not child.schema.has_all(predicate.columns()):
            missing = set(predicate.columns()) - set(child.schema.names)
            raise ValueError(f"filter references missing columns {missing}")
        super().__init__(child.schema, child.output_order, [child])
        self.predicate = predicate
        row_fns, batch_fns = compile_kernels((predicate,), child.schema, kernels)
        self._row_fn = row_fns[0] if row_fns else None
        self._batch_fn = batch_fns[0] if batch_fns else None

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        row_fn, batch_fn = self._row_fn, self._batch_fn
        if row_fn is None:  # parameterized: this execution's values
            (row_fn,), (batch_fn,) = bound_kernels(
                (self.predicate,), self.schema, ctx.binds)
        return self._filtered(ctx, row_fn, batch_fn)

    def _filtered(self, ctx: ExecutionContext, row_fn,
                  batch_fn) -> Iterator[RowBatch]:
        for batch in self.children[0].execute_batches(ctx):
            if batch_fn is not None and (batch.is_columnar
                                         or len(batch) >= COLUMNAR_MIN_ROWS):
                kept = batch.compress(batch_fn(batch))
            else:
                kept = batch.filter(row_fn)
            if kept:
                yield kept

    def details(self) -> str:
        return repr(self.predicate)


class Project(Operator):
    """π: positional projection to a subset of columns.

    The guaranteed output order is the longest prefix of the input order
    that survives the projection.
    """

    name = "Project"

    def __init__(self, child: Operator, columns: Sequence[str]) -> None:
        schema = child.schema.project(list(columns))
        kept = set(columns)
        order = child.output_order.restrict_prefix_to(kept)
        super().__init__(schema, order, [child])
        self._positions = child.schema.positions(list(columns))
        self._identity = list(self._positions) == list(range(len(child.schema)))

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        child = self.children[0]
        if self._identity:
            # Pure rename: pass batches through untouched (zero copies).
            return child.execute_batches(ctx)
        positions = self._positions
        # ``project`` re-uses the input's column objects when columnar
        # and builds tuples via itemgetter otherwise.
        return (batch.project(positions)
                for batch in child.execute_batches(ctx))

    def details(self) -> str:
        return ", ".join(self.schema.names)


class Compute(Operator):
    """Extend each row with computed expressions (e.g. Quantity*Price).

    Appends one column per ``(name, expression)`` pair; preserves order.
    """

    name = "Compute"

    def __init__(self, child: Operator, outputs: Sequence[tuple[str, Expression]],
                 output_size: int = 8,
                 kernels: Optional[OperatorKernels] = None) -> None:
        new_cols = [Column(name, "num", output_size) for name, _ in outputs]
        schema = Schema(list(child.schema) + new_cols)
        super().__init__(schema, child.output_order, [child])
        self.outputs = list(outputs)
        self._row_fns, self._batch_fns = compile_kernels(
            tuple(expr for _, expr in self.outputs), child.schema, kernels)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        row_fns, batch_fns = self._row_fns, self._batch_fns
        if row_fns is None:  # parameterized: this execution's values
            row_fns, batch_fns = bound_kernels(
                [expr for _, expr in self.outputs],
                self.children[0].schema, ctx.binds)
        return self._computed(ctx, row_fns, batch_fns)

    def _computed(self, ctx: ExecutionContext, row_fns,
                  batch_fns) -> Iterator[RowBatch]:
        for batch in self.children[0].execute_batches(ctx):
            if batch_fns is not None and (batch.is_columnar
                                          or len(batch) >= COLUMNAR_MIN_ROWS):
                new_cols = [fn(batch) for fn in batch_fns]
                if batch.is_columnar:
                    cols = list(batch.columns)
                    cols.extend(new_cols)
                    yield RowBatch.from_columns(cols, len(batch))
                elif len(new_cols) == 1:
                    # Row-backed input stays row-backed: append the
                    # kernel's values without transposing the old
                    # columns there and back.
                    yield RowBatch([row + (v,) for row, v
                                    in zip(batch.rows, new_cols[0])])
                else:
                    yield RowBatch([row + ext for row, ext
                                    in zip(batch.rows, zip(*new_cols))])
            else:
                yield RowBatch([row + tuple(fn(row) for fn in row_fns)
                                for row in batch.rows])

    def details(self) -> str:
        return ", ".join(f"{name}={expr}" for name, expr in self.outputs)


class Sort(Operator):
    """Order enforcer: SRS full sort or MRS partial sort.

    ``known_prefix`` defaults to the usable prefix of the child's
    guaranteed order — the paper's partial sort enforcer ``o' → o``.
    """

    name = "Sort"

    def __init__(self, child: Operator, target_order: SortOrder,
                 known_prefix: Optional[SortOrder] = None,
                 algorithm: str = "auto") -> None:
        if not child.schema.has_all(list(target_order)):
            missing = set(target_order) - set(child.schema.names)
            raise ValueError(f"sort references missing columns {missing}")
        if known_prefix is None:
            known_prefix = longest_common_prefix(child.output_order, target_order)
        super().__init__(child.schema, target_order, [child])
        self.known_prefix = known_prefix
        self.algorithm = algorithm

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        batches = self.children[0].execute_batches(ctx)
        if ctx.check_orders and self.known_prefix:
            batches = assert_sorted_batches(
                batches, self.schema.positions(list(self.known_prefix)),
                f"Sort input (declared prefix {self.known_prefix})")
        out = sort_batches(batches, self.schema, self.output_order, ctx,
                           known_prefix=self.known_prefix, algorithm=self.algorithm)
        if ctx.check_orders:
            out = assert_sorted_batches(
                out, self.schema.positions(list(self.output_order)), "Sort output")
        return out

    @property
    def is_partial(self) -> bool:
        return bool(self.known_prefix) and self.algorithm != "srs"

    def details(self) -> str:
        if self.is_partial:
            return f"{self.known_prefix} --> {self.output_order}"
        return f"ε --> {self.output_order}"


class PartialSort(Sort):
    """Alias emphasising a partial sort enforcer in explain output."""

    name = "PartialSort"

    def __init__(self, child: Operator, target_order: SortOrder,
                 known_prefix: Optional[SortOrder] = None) -> None:
        super().__init__(child, target_order, known_prefix, algorithm="mrs")


class Limit(Operator):
    """Pass through the first *k* rows (ORDER BY ... LIMIT k on sorted input).

    Stops pulling from the child once *k* rows arrived — early
    termination at batch granularity, so upstream stops paying I/O.
    """

    name = "Limit"

    def __init__(self, child: Operator, k: int) -> None:
        if k < 0:
            raise ValueError("limit must be non-negative")
        super().__init__(child.schema, child.output_order, [child])
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

    def details(self) -> str:
        return f"k={self.k}"
