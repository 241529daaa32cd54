"""Grouping/aggregation operators — batch-vectorized.

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

from itertools import repeat
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..expr.aggregates import AGGREGATES, AggSpec, aggregate_output_schema
from .batch import RowBatch, batches_of, drain_full, gather, run_starts
from .context import ExecutionContext
from .iterators import Operator, tuple_getter
from .kernels import KERNELS, VALUES

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


def _fold_sorted_groups(batches: Iterable[RowBatch], positions: Sequence[int],
                        head_of: Callable[[tuple], tuple],
                        values_of: Callable[[RowBatch], Sequence[Sequence]],
                        funcs: Sequence, ctx: ExecutionContext) -> Iterator[RowBatch]:
    """Streaming group fold shared by the sort-based aggregations.

    Groups are runs of equal raw keys, found a batch at a time
    (:func:`~repro.engine.batch.run_starts`).  Only the group open at
    the end of a batch carries its *states* (O(1) memory) into the next
    batch; each aggregate advances them with one ``fold`` call over the
    group's slice of the batch.  The groups that close inside a batch
    are aggregated together, a column at a time (:func:`_closed_groups`).
    ``head_of`` gives a group's leading output columns from its first
    row, ``values_of`` one input column per aggregate for a whole batch.
    One comparison is tallied per input row (the group-boundary test),
    in bulk.
    """
    counter, size = ctx.comparisons, ctx.batch_size
    inits = [func.init for func in funcs]
    finals = [func.final for func in funcs]
    folds = [(func.fold, func.ignores_null) for func in funcs]

    def fold(columns: Sequence[Sequence], start: int, end: Optional[int]) -> None:
        for j, (fold_run, skip_null) in enumerate(folds):
            values = columns[j][start:end]
            states[j] = fold_run(states[j],
                                 _without_nulls(values) if skip_null else values)

    def closed() -> tuple:
        return head + tuple([final(s) for final, s in zip(finals, states)])

    current_key: Optional[tuple] = None
    head: tuple = ()
    states: list = []
    out: list[tuple] = []
    for batch in batches:
        rows, keys = batch.rows, batch.key_tuples(positions)
        columns = values_of(batch)
        counter.value += len(keys)
        starts = run_starts(keys)
        last = starts[-1]
        first = 0  # index in *starts* of the first run not dealt with
        if current_key is not None:
            if keys[0] == current_key:
                fold(columns, 0, starts[1] if last else None)
                if not last:
                    continue  # still open at the end of this batch
                first = 1
            out.append(closed())
        if starts[first] < last:
            out.extend(_closed_groups(rows, columns, starts[first:], head_of,
                                      funcs))
        current_key, head = keys[last], head_of(rows[last])
        states = [init() for init in inits]
        fold(columns, last, None)
        if len(out) >= size:
            yield from drain_full(out, size)
    if current_key is not None:
        out.append(closed())
    yield from batches_of(out, size)


def _closed_groups(rows: list[tuple], columns: Sequence[Sequence],
                   starts: list[int], head_of: Callable[[tuple], tuple],
                   funcs: Sequence) -> Iterator[tuple]:
    """Output rows of the groups ``rows[starts[i]:starts[i + 1]]`` (the
    last entry of *starts* only ends the last group).

    Each aggregate takes its ``bulk`` form over every group's slice of
    its column — no Python step per group — when the region holds no
    value it would ignore, and one ``fold`` call per group otherwise.
    """
    begins, ends = starts[:-1], starts[1:]
    lo, hi = starts[0], starts[-1]
    results = []
    for func, column in zip(funcs, columns):
        groups = map(column.__getitem__, map(slice, begins, ends))
        if func.ignores_null and None in column[lo:hi]:
            groups = map(_without_nulls, groups)
        elif func.bulk is not None:
            results.append(map(func.bulk, groups))
            continue
        init, fold, final = func.init, func.fold, func.final
        results.append([final(fold(init(), values)) for values in groups])
    return map(add, map(head_of, gather(rows, begins)),
               zip(*results) if results else repeat(()))


def _without_nulls(values: Sequence) -> Sequence:
    """*values* less its NULLs (*values* itself when it holds none)."""
    return [v for v in values if v is not None] if None in values else values


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

    name = "GroupAggregate"

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
        super().__init__(schema, group_order, [child])
        self.group_order = group_order
        self.group_columns = group_columns
        self.aggregates = list(aggregates)
        self._kernel = KERNELS.get(
            VALUES, [spec.arg for spec in self.aggregates], child.schema)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        child = self.children[0]
        positions = child.schema.positions(list(self.group_order))
        kernel, binds = self._kernel, ctx.binds
        batches: Iterable[RowBatch] = child.execute_batches(ctx)
        if ctx.check_orders:
            batches = self._checked_group_batches(batches, positions)
        return _fold_sorted_groups(
            batches, positions,
            tuple_getter(child.schema.positions(self.group_columns)),
            lambda batch: kernel(batch.rows, binds),
            [spec.function for spec in self.aggregates], ctx)

    def _checked_group_batches(self, batches: Iterable[RowBatch],
                               positions: Sequence[int]) -> Iterator[RowBatch]:
        seen: set[tuple] = set()
        prev: Optional[tuple] = None
        for batch in batches:
            for key in batch.key_tuples(positions):
                if key != prev:
                    if key in seen:
                        raise AssertionError(
                            f"GroupAggregate: group {key} reappeared — input not "
                            f"grouped on {self.group_order}")
                    seen.add(key)
                    prev = key
            yield batch

    def details(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"by {self.group_order}: {aggs}"


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

    name = "SortedCombine"

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
        super().__init__(child.schema, group_order, [child])
        self.group_order = group_order
        self.group_columns = group_columns
        self.aggregates = list(aggregates)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        width = len(self.group_columns)
        partials = range(width, width + len(self.aggregates))
        return _fold_sorted_groups(
            self.children[0].execute_batches(ctx),
            self.schema.positions(list(self.group_order)),
            itemgetter(slice(width)),
            lambda batch: [[row[p] for row in batch.rows] for p in partials],
            [AGGREGATES[AGGREGATE_COMBINERS[spec.func]]
             for spec in self.aggregates], ctx)

    def details(self) -> str:
        aggs = ", ".join(AGGREGATE_COMBINERS[s.func] + f"({s.output_name})"
                         for s in self.aggregates)
        return f"by {self.group_order}: {aggs}"


class HashAggregate(Operator):
    """Hash-based GROUP BY; no order requirement, no order guarantee.

    Input clustered on the group key is folded a run at a time: each run
    of equal adjacent keys in a batch looks its group up once, and each
    aggregate advances that group's state with one ``fold`` call over
    the run's slice of its column.  A batch whose runs average under two
    rows keeps the per-row ``step`` loop, which is then the cheaper.
    Groups are emitted in the order they were first seen either way.

    When the group table exceeds sort memory, charges one spill
    write+read of the group state (the standard two-pass model).
    """

    name = "HashAggregate"

    def __init__(self, child: Operator, group_columns: Sequence[str],
                 aggregates: Sequence[AggSpec]) -> None:
        schema = aggregate_output_schema(list(group_columns), child.schema,
                                         list(aggregates))
        super().__init__(schema, EMPTY_ORDER, [child])
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        self._kernel = KERNELS.get(
            VALUES, [spec.arg for spec in self.aggregates], child.schema)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        child = self.children[0]
        positions = child.schema.positions(self.group_columns)
        kernel, binds = self._kernel, ctx.binds
        funcs = [spec.function for spec in self.aggregates]
        inits = [f.init for f in funcs]
        steps = [(j, f.step, f.ignores_null) for j, f in enumerate(funcs)]

        groups: dict[tuple, list] = {}
        for batch in child.execute_batches(ctx):
            keys = batch.key_tuples(positions)
            arg_cols = kernel(batch.rows, binds)
            starts = run_starts(keys)
            if 2 * len(starts) > len(keys):
                # Runs of under two rows on average: a step per row costs
                # less than a lookup and a fold call per run.
                for i, key in enumerate(keys):
                    states = groups.get(key)
                    if states is None:
                        states = groups[key] = [init() for init in inits]
                    for j, step, skip_null in steps:
                        value = arg_cols[j][i]
                        if value is not None or not skip_null:
                            states[j] = step(states[j], value)
                continue
            run_states = []
            for key in gather(keys, starts):
                states = groups.get(key)
                if states is None:
                    states = groups[key] = [init() for init in inits]
                run_states.append(states)
            ends = starts[1:]
            ends.append(len(keys))
            for j, (func, column) in enumerate(zip(funcs, arg_cols)):
                runs = map(column.__getitem__, map(slice, starts, ends))
                if func.ignores_null and None in column:
                    runs = map(_without_nulls, runs)
                fold = func.fold
                for states, values in zip(run_states, runs):
                    states[j] = fold(states[j], values)

        state_bytes = len(groups) * self.schema.row_bytes
        if state_bytes > ctx.params.sort_memory_bytes:
            ctx.charge_blocks_for_rows(len(groups), self.schema.row_bytes,
                                       direction="write", category="partition")
            ctx.charge_blocks_for_rows(len(groups), self.schema.row_bytes,
                                       direction="read", category="partition")

        yield from batches_of(
            (key + tuple(f.final(s) for f, s in zip(funcs, states))
             for key, states in groups.items()),
            ctx.batch_size)

    def details(self) -> str:
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"by {{{', '.join(self.group_columns)}}}: {aggs}"
