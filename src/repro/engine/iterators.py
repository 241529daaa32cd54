"""Physical operator base class (batch-vectorized Volcano model).

Every operator exposes:

* ``schema`` — output :class:`~repro.storage.schema.Schema`;
* ``output_order`` — the :class:`~repro.core.sort_order.SortOrder`
  *guaranteed* on its output stream;
* ``execute_batches(ctx)`` — the one execution method: a generator of
  :class:`~repro.engine.batch.RowBatch` chunks, charging simulated I/O
  and comparisons to the
  :class:`~repro.engine.context.ExecutionContext`
  (``flatten_batches(op.execute_batches(ctx))`` is the row view);
* ``run(ctx)`` — the drive loop: pull every batch, return the rows;
* ``explain()`` — a pretty-printed plan tree like the paper's figures.

Operators are *plans*, not live cursors: ``execute_batches`` may be
called repeatedly (each call is an independent execution), which the
benchmark harness and the workers' lowered-subplan cache rely on.
"""

from __future__ import annotations

import functools
import time
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..storage.schema import Schema
from .batch import RowBatch, collect_rows
from .context import ExecutionContext, key_lt


def _counted_batches(batches: Iterator[RowBatch], cell: list) -> Iterator[RowBatch]:
    for batch in batches:
        cell[1] += len(batch)
        yield batch


def _timed_counted_batches(batches: Iterator[RowBatch], cell: list,
                           tcell: list) -> Iterator[RowBatch]:
    """Count rows like :func:`_counted_batches` and accumulate the wall
    time spent *inside* this operator's ``next()`` — inclusive time
    (children included), PostgreSQL's ``actual time`` convention.  Only
    on the EXPLAIN ANALYZE path (``ctx.meter_timing``), so the default
    hot loop pays nothing for it."""
    clock = time.perf_counter
    batches = iter(batches)
    while True:
        started = clock()
        try:
            batch = next(batches)
        except StopIteration:
            tcell[0] += clock() - started
            return
        tcell[0] += clock() - started
        tcell[1] += 1
        cell[1] += len(batch)
        yield batch


def _metered(fn):
    """Wrap an ``execute_batches`` so a meter stamped at lowering time
    (``op._meter = (tag, estimated_rows)``) counts actual output rows
    into ``ctx.operator_rows``.

    Wrapping happens once, at *class* definition time (see
    ``Operator.__init_subclass__``), so lowering stamps a meter by
    setting one attribute.  Unmetered operators (``_meter`` is ``None``
    — anything built outside plan lowering) pay one attribute load and
    branch.
    """
    if getattr(fn, "_meter_wrapped", False):
        return fn

    @functools.wraps(fn)
    def execute_batches(self, ctx):
        meter = self._meter
        batches = fn(self, ctx)
        if meter is None:
            return batches
        cell = ctx.meter_start(meter[0], meter[1])
        if ctx.meter_timing:
            return _timed_counted_batches(batches, cell,
                                          ctx.time_cell(meter[0]))
        return _counted_batches(batches, cell)

    execute_batches._meter_wrapped = True
    return execute_batches


class Operator:
    """Base class of all physical operators."""

    name: str = "operator"

    #: Optional ``(tag, estimated_rows)`` meter, stamped on lowered
    #: instances by :mod:`repro.engine.lowering` from the plan node's
    #: cost-model stats.  ``None`` (the class default) disables metering.
    _meter: Optional[tuple] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "execute_batches" in cls.__dict__:
            cls.execute_batches = _metered(cls.__dict__["execute_batches"])

    def __init__(self, schema: Schema, output_order: SortOrder = EMPTY_ORDER,
                 children: Sequence["Operator"] = ()) -> None:
        self.schema = schema
        self.output_order = output_order
        self.children: tuple[Operator, ...] = tuple(children)

    # -- execution ---------------------------------------------------------------
    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Yield the output as row batches; every operator overrides it."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement execute_batches")

    def run(self, ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        """The drive loop: execute fully and collect the result rows."""
        ctx = ctx or ExecutionContext()
        return collect_rows(self.execute_batches(ctx))

    # -- introspection ---------------------------------------------------------------
    def details(self) -> str:
        """One-line operator-specific annotation for ``explain``."""
        return ""

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        extra = self.details()
        order = f" [order: {self.output_order}]" if self.output_order else ""
        line = f"{pad}{self.name}{f' ({extra})' if extra else ''}{order}"
        parts = [line]
        parts.extend(child.explain(indent + 1) for child in self.children)
        return "\n".join(parts)

    def walk(self) -> Iterator["Operator"]:
        """Pre-order traversal of the operator tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.details()})"


def assert_sorted_batches(batches: Iterable[RowBatch],
                          positions: Sequence[int],
                          what: str) -> Iterator[RowBatch]:
    """The one sortedness assertion (``ctx.check_orders``), shared by
    every checked operator: raw keys a batch at a time, compared with
    :func:`~repro.engine.context.key_lt`, state carried across batches."""
    prev: Optional[tuple] = None
    for batch in batches:
        for key in batch.key_tuples(positions):
            if prev is not None and key_lt(key, prev):
                raise AssertionError(
                    f"{what}: stream not sorted — saw {key} after {prev}")
            prev = key
        yield batch


def tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """Row tuple → tuple-of-positions extractor (``itemgetter``-backed).

    Unlike a bare ``itemgetter``, always returns a tuple — including for
    a single position (a one-element slice of the row, still one C-level
    call) and for no positions at all.
    """
    positions = tuple(positions)
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        pos = positions[0]
        return itemgetter(slice(pos, pos + 1))
    return itemgetter(*positions)
