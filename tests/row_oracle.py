"""Row-at-a-time tally oracle for the order-exploiting operators.

These are the engine's former row paths — the ``srs_sort`` selection
heap and the ``mrs_sort`` loop with their run store and merges, the
``_GroupReader`` merge join, the per-row sort-aggregate fold and the
per-row dict fold of the hash aggregate (both calling each aggregate's
``init``/``step``/``final``, never the templates the engine's generated
aggregate kernels inline), and the hash join's row order — kept
verbatim in behaviour:
one Python step per row, every key NULL-safe *wrapped* up front, one
``counter.add()`` per row.  Only what a k-way
merge, a selection tree and an in-memory segment sort charge is restated
by the engine's rules (``merge_sorted_streams``, ``srs_sort`` and
``mrs_sort``'s ``sort_in_memory`` below).  The batch engine in ``src/``
must reproduce their rows, row order and ``ctx.tallies()`` exactly
(``tests/test_order_ops_parity.py``).
The block nested-loops join at the bottom is the one operator here: no
search path or ``PlanBuilder`` method produces it, so it serves
``tests/test_joins.py`` as a reference beside the merge and hash joins.
:func:`evaluate` is the row semantics of scalar expressions, stated from
the SQL rules and never through a kernel: the reference the engine's one
generated kernels (``repro.engine.kernels``) are held to, and the row
function of every oracle here that evaluates an expression.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import math
import operator
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.engine import (
    ExecutionContext,
    Operator,
    RowBatch,
    batches_of,
    collect_rows,
    null_safe_wrap,
    tuple_getter,
)
from repro.engine.batch import drain_full
from repro.expr.expressions import (
    And,
    BinOp,
    Col,
    Comparison,
    Const,
    Expression,
    JoinPredicate,
    Or,
    Param,
    Predicate,
)

KeyFn = Callable[[tuple], tuple]

_SENTINEL = object()


def wrapped_key(positions: Sequence[int]) -> KeyFn:
    getter = tuple_getter(positions)
    return lambda row: null_safe_wrap(getter(row))


# -- scalar expressions ------------------------------------------------------------------
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}
_COMPARISON = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def evaluate(expr: Expression, schema,
             binds: Optional[dict] = None) -> Callable[[tuple], object]:
    """A row -> value function for *expr* over rows of *schema*, with
    each parameter standing for its value in *binds*.

    SQL's rules, one row at a time: arithmetic with a NULL operand is
    NULL; a comparison with a NULL operand is UNKNOWN, which a filter
    rejects, so it reads False; AND and OR combine those verdicts.
    """
    if isinstance(expr, Col):
        return operator.itemgetter(schema.position(expr.name))
    if isinstance(expr, Const):
        return lambda row: expr.value
    if isinstance(expr, Param):
        value = (binds or {})[expr.name]
        return lambda row: value
    if isinstance(expr, (BinOp, Comparison)):
        left = evaluate(expr.left, schema, binds)
        right = evaluate(expr.right, schema, binds)
        if isinstance(expr, BinOp):
            fn, unknown = _ARITHMETIC[expr.op], None
        else:
            fn, unknown = _COMPARISON[expr.op], False

        def apply(row: tuple):
            a, b = left(row), right(row)
            return unknown if a is None or b is None else fn(a, b)

        return apply
    if isinstance(expr, (And, Or)):
        parts = [evaluate(p, schema, binds) for p in expr.parts]
        combine = all if isinstance(expr, And) else any
        return lambda row: combine(part(row) for part in parts)
    raise TypeError(f"no row semantics for {expr!r}")


# -- sorting -----------------------------------------------------------------------------
class _RunStore:
    def __init__(self, ctx: ExecutionContext, row_bytes: int) -> None:
        self.ctx = ctx
        self.row_bytes = row_bytes
        self.runs: list[list[tuple]] = []

    def write_run(self, rows: list[tuple]) -> None:
        if not rows:
            return
        self.ctx.charge_blocks_for_rows(len(rows), self.row_bytes,
                                        direction="write", category="run")
        self.ctx.sort_metrics.runs_created += 1
        self.ctx.sort_metrics.rows_spilled += len(rows)
        self.runs.append(rows)

    def read_run(self, run: list[tuple]) -> Iterator[tuple]:
        return charged_stream(self.ctx, run, self.row_bytes, category="run")


def charged_stream(ctx: ExecutionContext, rows: Iterable[tuple], row_bytes: int,
                   category: str = "scan") -> Iterator[tuple]:
    """Yield rows, charging one block read per block's worth of rows.

    Progressive charging (rather than a lump sum at open time) keeps
    the tuples-vs-cost timeline of Experiment A2 honest: an operator
    that stops early stops paying.
    """
    per_block = ctx.rows_per_block(row_bytes)
    for i, row in enumerate(rows):
        if i % per_block == 0:
            ctx.io.read(1, category=category)
        yield row


def merge_sorted_streams(streams: Sequence[Iterable[tuple]], key_fn: KeyFn,
                         ctx: ExecutionContext) -> Iterator[tuple]:
    """Row-at-a-time heap merge.  What it *charges* is the engine's
    stated rule, not the heap's own compares: the tree-of-losers count
    ``ceil(log2 k)`` per emitted row for the *k* streams handed in."""
    per_row = (len(streams) - 1).bit_length()
    for row in heapq.merge(*streams, key=key_fn):
        ctx.comparisons.add(per_row)
        yield row


def _merge_runs(store: _RunStore, runs: list[list[tuple]], key_fn: KeyFn,
                ctx: ExecutionContext) -> Iterator[tuple]:
    runs = list(runs)
    fan_in = max(2, ctx.params.sort_memory_blocks - 1)
    while len(runs) > fan_in:
        ctx.sort_metrics.merge_passes += 1
        next_runs: list[list[tuple]] = []
        for i in range(0, len(runs), fan_in):
            merged = list(merge_sorted_streams(
                [store.read_run(r) for r in runs[i:i + fan_in]], key_fn, ctx))
            store.write_run(merged)
            next_runs.append(merged)
        runs = next_runs
    ctx.sort_metrics.merge_passes += 1
    return merge_sorted_streams([store.read_run(r) for r in runs], key_fn, ctx)


def srs_sort(rows: Iterable[tuple], positions: Sequence[int],
             ctx: ExecutionContext, row_bytes: int) -> Iterator[tuple]:
    """The row-level replacement selection loop: a ``heapq`` of
    ``(run, wrapped key, arrival, row)`` entries, one pop and one push
    per row.  What it *charges* is the engine's stated rule, not the
    heap's own compares: ``ceil(log2 P)`` per row leaving a selection
    tree of ``P = min(N, capacity)`` rows, and one replacement test per
    row that takes a leaving row's place."""
    capacity = max(1, ctx.memory_capacity_rows(row_bytes))
    counter = ctx.comparisons
    key_fn = wrapped_key(positions)
    it = iter(rows)
    heap = [(0, key_fn(row), seq, row)
            for seq, row in enumerate(islice(it, capacity))]
    heapq.heapify(heap)
    seq = len(heap)
    per_row = (seq - 1).bit_length()
    pending = next(it, _SENTINEL)

    if pending is _SENTINEL:
        ctx.sort_metrics.in_memory_sorts += 1
        while heap:
            counter.add(per_row)
            yield heapq.heappop(heap)[3]
        return

    store = _RunStore(ctx, row_bytes)
    current_run = 0
    run_buffer: list[tuple] = []
    while heap:
        run_id, last_key, _, row = heapq.heappop(heap)
        counter.add(per_row)
        if run_id != current_run:
            store.write_run(run_buffer)
            run_buffer = []
            current_run = run_id
        run_buffer.append(row)
        if pending is not _SENTINEL:
            new_key = key_fn(pending)
            counter.add()
            # A new tuple smaller than the last one output cannot join the
            # current run; defer it to the next run.
            target = run_id + 1 if new_key < last_key else run_id
            heapq.heappush(heap, (target, new_key, seq, pending))
            seq += 1
            pending = next(it, _SENTINEL)
    store.write_run(run_buffer)
    yield from _merge_runs(store, store.runs, key_fn, ctx)


def mrs_sort(rows: Iterable[tuple], prefix_positions: Sequence[int],
             suffix_positions: Sequence[int], ctx: ExecutionContext,
             row_bytes: int) -> Iterator[tuple]:
    """The row-level modified replacement selection loop."""
    capacity = max(1, ctx.memory_capacity_rows(row_bytes))
    counter = ctx.comparisons
    segment_key_fn = wrapped_key(prefix_positions)
    suffix_key_fn = wrapped_key(suffix_positions)

    def sort_in_memory(segment: list[tuple]) -> None:
        # What it *charges* is the engine's stated rule, not timsort's
        # own compares: n * ceil(log2 n) for n > 1 rows sorted in memory.
        if len(segment) > 1:
            counter.add(len(segment) * (len(segment) - 1).bit_length())
        segment.sort(key=suffix_key_fn)

    def emit_segment(segment: list[tuple], store: Optional[_RunStore]) -> Iterator[tuple]:
        ctx.sort_metrics.segments_sorted += 1
        if store is None or not store.runs:
            sort_in_memory(segment)
            ctx.sort_metrics.in_memory_sorts += 1
            yield from segment
            return
        sort_in_memory(segment)
        streams = [_merge_runs(store, store.runs, suffix_key_fn, ctx)]
        if segment:  # an empty in-memory tail is not a merge input
            streams.append(iter(segment))
        yield from merge_sorted_streams(streams, suffix_key_fn, ctx)

    current_prefix: object = _SENTINEL
    segment: list[tuple] = []
    store: Optional[_RunStore] = None

    for row in rows:
        prefix = segment_key_fn(row)
        counter.add()  # the segment-boundary test is a key comparison
        if prefix != current_prefix:
            if current_prefix is not _SENTINEL:
                yield from emit_segment(segment, store)
            current_prefix = prefix
            segment = [row]
            store = None
            continue
        segment.append(row)
        if len(segment) >= capacity:
            if store is None:
                store = _RunStore(ctx, row_bytes)
            sort_in_memory(segment)
            store.write_run(segment)
            segment = []
    if current_prefix is not _SENTINEL:
        yield from emit_segment(segment, store)


# -- merge join --------------------------------------------------------------------------
class _GroupReader:
    """Reads a key-sorted row stream group by group (one group = equal keys)."""

    _DONE = object()

    def __init__(self, rows: Iterator[tuple], key_positions: Sequence[int]) -> None:
        self._rows = rows
        self._key_of = wrapped_key(key_positions)
        self._pending: object = next(rows, self._DONE)

    @property
    def exhausted(self) -> bool:
        return self._pending is self._DONE

    def peek_key(self) -> tuple:
        return self._key_of(self._pending)

    def next_group(self) -> list[tuple]:
        key = self.peek_key()
        group = [self._pending]
        self._pending = next(self._rows, self._DONE)
        while not self.exhausted and self._key_of(self._pending) == key:
            group.append(self._pending)
            self._pending = next(self._rows, self._DONE)
        return group


def merge_join(lrows: Iterable[tuple], rrows: Iterable[tuple],
               lpos: Sequence[int], rpos: Sequence[int], lwidth: int,
               rwidth: int, join_type: str, ctx: ExecutionContext) -> Iterator[tuple]:
    """The row-level sort-merge join (inner / left / full outer)."""
    lreader = _GroupReader(iter(lrows), lpos)
    rreader = _GroupReader(iter(rrows), rpos)
    counter = ctx.comparisons
    lpad, rpad = (None,) * lwidth, (None,) * rwidth
    emit_left_outer = join_type in ("left", "full")
    emit_right_outer = join_type == "full"

    while not lreader.exhausted and not rreader.exhausted:
        lkey, rkey = lreader.peek_key(), rreader.peek_key()
        counter.add()
        if lkey < rkey:
            lgroup = lreader.next_group()
            if emit_left_outer:
                for lrow in lgroup:
                    yield lrow + rpad
        elif rkey < lkey:
            rgroup = rreader.next_group()
            if emit_right_outer:
                for rrow in rgroup:
                    yield lpad + rrow
        else:
            lgroup, rgroup = lreader.next_group(), rreader.next_group()
            # SQL semantics: NULL keys never match, even to each other.
            if any(not present for present, _ in lkey):
                if emit_left_outer:
                    for lrow in lgroup:
                        yield lrow + rpad
                if emit_right_outer:
                    for rrow in rgroup:
                        yield lpad + rrow
                continue
            for lrow in lgroup:
                for rrow in rgroup:
                    yield lrow + rrow
    while emit_left_outer and not lreader.exhausted:
        for lrow in lreader.next_group():
            yield lrow + rpad
    while emit_right_outer and not rreader.exhausted:
        for rrow in rreader.next_group():
            yield lpad + rrow


#: SQL's aggregates skip NULL inputs, all but ``COUNT(*)``, which counts
#: rows.  Stated here, not read off ``AggregateFunction.ignores_null``.
KEEPS_NULL = {"count_star"}


# -- sort aggregate ----------------------------------------------------------------------
def sort_aggregate(rows: Iterable[tuple], key_positions: Sequence[int],
                   out_positions: Sequence[int], arg_fns: Sequence[Callable],
                   funcs: Sequence, ctx: ExecutionContext) -> Iterator[tuple]:
    """The per-row streaming GROUP BY fold over key-grouped input.  With
    no group columns there is one group, which has a row over no input
    too (SQL's global aggregate)."""
    key_of = tuple_getter(key_positions)
    out_getter = tuple_getter(out_positions)
    current_key: Optional[tuple] = None
    current_group: Optional[tuple] = None
    states: list = []
    for row in rows:
        key = key_of(row)
        ctx.comparisons.add()
        if key != current_key:
            if current_key is not None:
                yield current_group + tuple(
                    f.final(s) for f, s in zip(funcs, states))
            current_key = key
            current_group = out_getter(row)
            states = [f.init() for f in funcs]
        for j, func in enumerate(funcs):
            value = arg_fns[j](row)
            if value is None and func.name not in KEEPS_NULL:
                continue
            states[j] = func.step(states[j], value)
    if current_key is not None:
        yield current_group + tuple(f.final(s) for f, s in zip(funcs, states))
    elif not out_positions:
        yield tuple(f.final(f.init()) for f in funcs)


# -- hash aggregate ----------------------------------------------------------------------
def hash_aggregate(rows: Iterable[tuple], key_positions: Sequence[int],
                   arg_fns: Sequence[Callable], funcs: Sequence,
                   ctx: ExecutionContext, row_bytes: int) -> Iterator[tuple]:
    """The per-row dict GROUP BY fold: groups emitted in first-seen
    order under the key their first row spelled, and one spill write and
    read of the group table when it outgrows sort memory.  With no group
    columns there is one group, which has a row over no input too."""
    key_of = tuple_getter(key_positions)
    groups: dict[tuple, list] = {}
    for row in rows:
        key = key_of(row)
        states = groups.get(key)
        if states is None:
            states = groups[key] = [f.init() for f in funcs]
        for j, func in enumerate(funcs):
            value = arg_fns[j](row)
            if value is None and func.name not in KEEPS_NULL:
                continue
            states[j] = func.step(states[j], value)
    if len(groups) * row_bytes > ctx.params.sort_memory_bytes:
        for direction in ("write", "read"):
            ctx.charge_blocks_for_rows(len(groups), row_bytes,
                                       direction=direction, category="partition")
    if not key_positions and not groups:
        groups[()] = [f.init() for f in funcs]
    for key, states in groups.items():
        yield key + tuple(f.final(s) for f, s in zip(funcs, states))


# -- hash join ---------------------------------------------------------------------------
def hash_join(lrows: Sequence[tuple], rrows: Sequence[tuple], lschema, rschema,
              predicate: JoinPredicate, join_type: str,
              ctx: ExecutionContext) -> list[tuple]:
    """The hash join's rows in the hash join's order, a row at a time.

    Inner and full joins build on the left and emit in probe (right)
    order, a key's build rows in build order; a full join then emits its
    unmatched build groups in first-seen key order, then its NULL-key
    build rows.  A left outer join builds on the right and emits in left
    order.  NULL keys never join.  A build side larger than sort memory
    charges one partition write and read of both inputs (Grace)."""
    left_outer = join_type == "left"
    build, probe = (rrows, lrows) if left_outer else (lrows, rrows)
    bschema, pschema = (rschema, lschema) if left_outer else (lschema, rschema)
    bcols, pcols = predicate.right_columns, predicate.left_columns
    if not left_outer:
        bcols, pcols = pcols, bcols
    build_key = tuple_getter(bschema.positions(list(bcols)))
    probe_key = tuple_getter(pschema.positions(list(pcols)))

    def grace(rows: Sequence[tuple], schema) -> None:
        for direction in ("write", "read"):
            ctx.charge_blocks_for_rows(len(rows), schema.row_bytes,
                                       direction=direction, category="partition")

    spills = len(build) * bschema.row_bytes > ctx.params.sort_memory_bytes
    if spills:
        grace(build, bschema)
    table: dict[tuple, list[tuple]] = {}
    null_rows = []
    for row in build:
        key = build_key(row)
        if any(v is None for v in key):
            null_rows.append(row)
        else:
            table.setdefault(key, []).append(row)
    pad = (None,) * len(bschema)
    out, matched = [], []
    for row in probe:
        key = probe_key(row)
        group = [] if any(v is None for v in key) else table.get(key, [])
        if left_outer:
            out += [row + other for other in group] or [row + pad]
            continue
        if group:
            matched.append(key)
        out += [other + row for other in group]
        if not group and join_type == "full":
            out.append(pad + row)
    if spills:
        grace(probe, pschema)
    if join_type == "full":
        pad = (None,) * len(pschema)
        for key, group in table.items():
            if key not in matched:
                out += [row + pad for row in group]
        out += [row + pad for row in null_rows]
    return out


# -- nested loops ------------------------------------------------------------------------
class NestedLoopsJoin(Operator):
    """Block nested-loops join; preserves the outer (left) input's order.

    The inner input is materialised once; the simulated cost charges one
    inner re-read per outer memory-load, the textbook
    ``B_outer + ⌈B_outer / (M-1)⌉ · B_inner`` pattern.
    """

    def __init__(self, left: Operator, right: Operator,
                 predicate: Optional[JoinPredicate] = None,
                 residual: Optional[Predicate] = None) -> None:
        schema = left.schema.concat(right.schema)
        super().__init__(schema, [left, right])
        self.predicate = predicate
        self.residual = residual

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        left, right = self.children
        inner = collect_rows(right.execute_batches(ctx))
        inner_blocks = math.ceil(len(inner) * right.schema.row_bytes
                                 / ctx.params.block_size) if inner else 0
        outer_rows_per_load = ctx.memory_capacity_rows(left.schema.row_bytes)

        pairs = self.predicate.pairs if self.predicate else ()
        lpos = left.schema.positions([l for l, _ in pairs]) if pairs else ()
        rpos = right.schema.positions([r for _, r in pairs]) if pairs else ()
        residual_fn = (evaluate(self.residual, self.schema)
                       if self.residual is not None else None)
        lgetter = tuple_getter(lpos)
        rgetter = tuple_getter(rpos)
        # Inner keys are extracted once, not once per outer row.
        inner_keyed = [(rrow, rgetter(rrow)) for rrow in inner]

        def stream() -> Iterator[RowBatch]:
            out: list[tuple] = []
            i = 0
            for lbatch in left.execute_batches(ctx):
                for lrow in lbatch.rows:
                    if i % outer_rows_per_load == 0 and inner_blocks:
                        # One full inner re-read per outer memory-load.
                        ctx.io.read(inner_blocks, category="scan")
                    i += 1
                    lkey = lgetter(lrow)
                    lkey_has_null = any(v is None for v in lkey)
                    for rrow, rkey in inner_keyed:
                        if pairs:
                            ctx.comparisons.add()
                            if lkey != rkey or lkey_has_null:
                                continue
                        row = lrow + rrow
                        if residual_fn is None or residual_fn(row):
                            out.append(row)
                if len(out) >= ctx.batch_size:
                    yield from drain_full(out, ctx.batch_size)
            yield from batches_of(out, ctx.batch_size)

        return stream()

    def details(self) -> str:
        return repr(self.predicate) if self.predicate else "cross"
