"""External sorting: standard and modified replacement selection (Section 3).

Two algorithms:

* :func:`srs_sort` — **SRS**, textbook replacement selection [Knu73]:
  a selection heap produces initial runs (~2× memory on random input, one
  giant run on presorted input), runs are written to the simulated disk
  and merged with fan-in ``M-1``.  On fully-presorted input SRS still
  "writes a single large run to the disk and reads it back; this breaks
  the pipeline and incurs substantial I/O" — exactly the behaviour the
  paper criticises.

* :func:`mrs_sort` — **MRS**, the paper's modified replacement selection:
  given a known partial sort order (a prefix of the target order), tuples
  sharing a prefix value form a *partial sort segment*; each segment is
  sorted independently on the remaining attributes and emitted as soon as
  the next segment starts.  If a segment fits in memory the whole sort
  does **zero** disk I/O, output begins immediately (pipelined), and
  comparisons drop from ``O(n log n)`` to ``O(n log(n/k))`` on fewer
  attributes.

Both charge block transfers to the :class:`~repro.engine.context.ExecutionContext`
and count comparisons, making Experiments A1–A4 reproducible.

Keys are **raw** tuples; ordering falls back to NULL-safe wrapped keys
only on a NULL-vs-value ``TypeError`` (see ``docs/execution.md``, "Key
discipline"), and every comparison of every sort is made at C level.
The tallies are rules, not artefacts of a container: a k-way merge
charges the tree-of-losers count ``ceil(log2 k)`` per emitted row, a
replacement test is one comparison per replaced row, and sorting *n*
rows in memory (an SRS input that fits, an MRS segment, or one memory
load of a spilled one) charges ``n * ceil(log2 n)`` — of which the SRS
selection tree's ``ceil(log2 P)`` per row leaving a tree of *P* rows is
the general form.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, compress, repeat
from operator import gt, itemgetter, sub
from typing import Iterable, Iterator, Optional, Sequence

from ..core.sort_order import SortOrder, sorted_nulls_first
from ..storage.schema import Schema
from .batch import RowBatch, batches_of, drain_full, flatten_batches, run_starts
from .context import ExecutionContext, null_safe_wrap
from .iterators import tuple_getter


class _RunStore:
    """Simulated disk holding sort runs; charges I/O at write & read time."""

    def __init__(self, ctx: ExecutionContext, row_bytes: int, category: str = "run") -> None:
        self.ctx = ctx
        self.row_bytes = row_bytes
        self.category = category
        self.runs: list[list[tuple]] = []

    def write_run(self, rows: list[tuple]) -> None:
        if not rows:
            return
        self.ctx.charge_blocks_for_rows(len(rows), self.row_bytes,
                                        direction="write", category=self.category)
        self.ctx.sort_metrics.runs_created += 1
        self.ctx.sort_metrics.rows_spilled += len(rows)
        self.runs.append(rows)

    def read_run(self, run: list[tuple]) -> Iterator[RowBatch]:
        """One batch per simulated block, each charged as it is handed
        out (progressive, so a merge that stops early stops paying)."""
        per_block = self.ctx.rows_per_block(self.row_bytes)
        for i in range(0, len(run), per_block):
            self.ctx.io.read(1, category=self.category)
            yield RowBatch(run[i:i + per_block])


def merge_sorted_streams(streams: Sequence[Iterable[RowBatch]],
                         positions: Sequence[int],
                         ctx: ExecutionContext) -> Iterator[RowBatch]:
    """Stable k-way merge of sorted batch streams, a round at a time.

    A round looks at the head batch of every live stream.  The *bound* is
    the smallest last key among them, its *owner* the lowest stream
    holding it.  Streams before the owner give their rows ``<= bound``
    (``bisect_right``), streams after it their rows ``< bound``
    (``bisect_left``), the owner its whole batch: key ties go to the
    lowest stream, and the owner's later equal keys still precede higher
    streams'.  The prefixes, concatenated in stream order, are
    stable-sorted at C level, and only the owner is refilled — when the
    consumer comes back for more.  Merging sorted shards *in shard order*
    so reproduces the row sequence of a stable full sort of their
    concatenation, which :class:`~repro.engine.exchange.MergeExchange`
    and the run merges below rely on.  A round whose raw keys raise
    ``TypeError`` (NULL against a value) is redone on wrapped keys.

    The tally is the tree-of-losers count, ``ceil(log2 k)`` per emitted
    row for the *k* streams handed in (nothing for one): what
    ``CostModel.merge_exchange`` charges, whatever the batch boundaries.
    """
    if len(streams) == 1:
        yield from streams[0]
        return
    counter, per_row = ctx.comparisons, (len(streams) - 1).bit_length()
    raw_key = tuple_getter(positions)
    sources = [iter(stream) for stream in streams]
    live = list(range(len(sources)))
    heads: list[list[tuple]] = [[] for _ in sources]
    starts = [0] * len(sources)

    def refill(i: int) -> None:
        for batch in sources[i]:
            if batch:
                heads[i], starts[i] = batch.rows, 0
                return
        live.remove(i)

    def cut(key) -> tuple[int, list[int], list[tuple]]:
        lasts = [key(heads[i][-1]) for i in live]
        bound = min(lasts)
        owner = live[lasts.index(bound)]
        ends = [len(heads[i]) if i == owner else
                (bisect_right if i < owner else bisect_left)(
                    heads[i], bound, starts[i], key=key)
                for i in live]
        rows: list[tuple] = []
        for i, end in zip(live, ends):
            rows += heads[i][starts[i]:end]
        if len(rows) > len(heads[owner]) - starts[owner]:
            rows.sort(key=key)
        return owner, ends, rows

    for i in range(len(sources)):
        refill(i)
    while live:
        try:
            owner, ends, rows = cut(raw_key)
        except TypeError:
            owner, ends, rows = cut(lambda row: null_safe_wrap(raw_key(row)))
        for i, end in zip(live, ends):
            starts[i] = end
        counter.value += len(rows) * per_row
        yield RowBatch(rows)
        refill(owner)


def _merge_runs(store: _RunStore, runs: list[list[tuple]],
                positions: Sequence[int], ctx: ExecutionContext) -> Iterator[RowBatch]:
    """Multiway-merge *runs* down to a single sorted batch stream.

    Intermediate passes happen only when the number of runs exceeds the
    merge fan-in (``M - 1`` input buffers); each pass reads and rewrites
    the merged data, which is what makes the SRS curve jump in Fig. 9.
    """
    # Snapshot: write_run() appends to store.runs, which may be the very
    # list the caller handed us.
    runs = list(runs)
    fan_in = max(2, ctx.params.sort_memory_blocks - 1)

    while len(runs) > fan_in:
        ctx.sort_metrics.merge_passes += 1
        next_runs: list[list[tuple]] = []
        for i in range(0, len(runs), fan_in):
            merged = list(flatten_batches(merge_sorted_streams(
                [store.read_run(r) for r in runs[i:i + fan_in]], positions, ctx)))
            store.write_run(merged)
            next_runs.append(merged)
        runs = next_runs
    ctx.sort_metrics.merge_passes += 1
    return merge_sorted_streams([store.read_run(r) for r in runs], positions, ctx)


def srs_sort(batches: Iterable[RowBatch], positions: Sequence[int],
             ctx: ExecutionContext, row_bytes: int) -> Iterator[RowBatch]:
    """Standard replacement selection external sort on key *positions*.

    Input that fits in sort memory is one stable in-memory sort, no I/O
    (the cost model's ``B(e) ≤ M`` branch), charged by the rule
    ``n * ceil(log2 n)`` — not by what ``sorted`` happens to compare,
    whose adaptivity to presorted input would erase the SRS-vs-MRS
    comparison gap the paper measures.  Otherwise a selection tree of
    one memory load produces runs on the simulated disk, which are merged
    with every transfer charged.  A row leaving a tree of *P* rows
    charges ``ceil(log2 P)``, a row replacing it one test against the
    row it replaces (does it still fit the current run?).

    The tree is a ``heapq`` of plain ``(run, key, arrival, row)`` tuples:
    *arrival* is unique, so rows are never compared and ties keep input
    order.  A NULL against a value raises ``TypeError`` out of a heap
    step that has lost no entry but the one on its way out (``heapq``
    only ever swaps), so the entries are then rebuilt on wrapped keys,
    once, and stay wrapped.
    """
    # A row wider than sort memory must not yield capacity 0: the whole
    # input would be deferred against an empty heap and silently dropped.
    capacity = max(1, ctx.memory_capacity_rows(row_bytes))
    counter, size = ctx.comparisons, ctx.batch_size
    key_of = raw_key = tuple_getter(positions)
    source = iter(batches)
    rows: list[tuple] = []
    for batch in source:
        rows += batch.rows
        if len(rows) > capacity:
            break
    else:
        # Entire input fits in memory: no run I/O at all.
        ctx.sort_metrics.in_memory_sorts += 1
        counter.value += len(rows) * (len(rows) - 1).bit_length()
        yield from batches_of(sorted_nulls_first(rows, positions), size)
        return

    def rewrap() -> None:
        # Called while a ``TypeError`` is being handled; wrapped keys
        # that still do not compare are not a NULL's doing.
        nonlocal key_of
        if key_of is not raw_key:
            raise
        key_of = lambda row: null_safe_wrap(raw_key(row))  # noqa: E731
        heap[:] = [(run, key_of(row), arrival, row) for run, _, arrival, row in heap]
        heapq.heapify(heap)

    store = _RunStore(ctx, row_bytes)
    heap = list(zip(repeat(0), map(raw_key, rows), range(capacity), rows))
    try:
        heapq.heapify(heap)
    except TypeError:
        rewrap()
    runs: defaultdict[int, list[tuple]] = defaultdict(list)
    arrival = capacity
    for row in chain(rows[capacity:], flatten_batches(source)):
        # heap[0] leaves for its run and *row* takes its place — in the
        # next run if it sorts before the row it replaces.
        run, last_key, _, leaving = heap[0]
        key = key_of(row)
        try:
            late = key < last_key
        except TypeError:
            rewrap()
            key = key_of(row)
            late = key < heap[0][1]
        try:
            heapq.heapreplace(heap, (run + late, key, arrival, row))
        except TypeError:
            rewrap()
        arrival += 1
        runs[run].append(leaving)
    try:
        heap.sort()
    except TypeError:
        rewrap()
        heap.sort()
    for run, _, _, row in heap:
        runs[run].append(row)
    # Run ids only ever grow, so the dictionary holds the runs in order.
    for run_rows in runs.values():
        store.write_run(run_rows)
    counter.value += arrival * (capacity - 1).bit_length() + arrival - capacity

    out: list[tuple] = []
    for batch in _merge_runs(store, store.runs, positions, ctx):
        out += batch.rows
        if len(out) >= size:
            yield from drain_full(out, size)
    yield from batches_of(out, size)


def mrs_sort(batches: Iterable[RowBatch], prefix_positions: Sequence[int],
             suffix_positions: Sequence[int], ctx: ExecutionContext,
             row_bytes: int) -> Iterator[RowBatch]:
    """Modified replacement selection exploiting a known partial sort order.

    ``prefix_positions`` are the already-sorted attributes;
    ``suffix_positions`` the remaining attributes to sort within a
    segment.  Segments are runs of equal raw prefix keys, found a batch at
    a time: every segment that closes inside an input batch is put in
    order in one step for the whole batch, and only the one still open at
    the batch's end is carried into the next.  Output starts as soon as
    the first segments fill a batch, enabling fully pipelined execution.

    Oversized segments (larger than sort memory) degrade gracefully: full
    memory loads are sorted and spilled as runs, then merged — per
    segment, so run counts stay far below SRS until a single segment
    approaches the whole input (the convergence at the right edge of
    Fig. 9).
    """
    # Like srs_sort's ≥ 1 guard: a merge needs room for two rows, and a
    # smaller capacity would spill a run per row instead of degrading
    # gracefully.
    capacity = max(2, ctx.memory_capacity_rows(row_bytes))
    counter, metrics, size = ctx.comparisons, ctx.sort_metrics, ctx.batch_size
    suffix_key = itemgetter(*suffix_positions)
    suffix_of = tuple_getter(suffix_positions)

    def in_memory(rows: list[tuple]) -> list[tuple]:
        # The stated rule: sorting n > 1 rows in memory is n * ceil(log2 n)
        # comparisons.  ``sorted`` leaves *rows* as they were, so the redo
        # after a NULL-vs-value TypeError is stable on the input order.
        n = len(rows)
        if n < 2:
            return rows
        counter.value += n * (n - 1).bit_length()
        try:
            return sorted(rows, key=suffix_key)
        except TypeError:
            return sorted(rows, key=lambda row: null_safe_wrap(suffix_of(row)))

    def spilled(segment: list[tuple]) -> Iterator[tuple]:
        # Sort and spill one memory load at a time, sort the in-memory
        # tail, then merge it with the on-disk runs of this segment only.
        # The run merge honours the same fan-in limit as SRS
        # (intermediate passes when there are more runs than buffers), so
        # an all-one-segment input converges to SRS cost — the right edge
        # of Fig. 9.
        store = _RunStore(ctx, row_bytes)
        start = 0
        for end in range(capacity, len(segment) + 1, capacity):
            store.write_run(in_memory(segment[start:end]))
            start = end
        tail = in_memory(segment[start:])
        streams = [_merge_runs(store, store.runs, suffix_positions, ctx)]
        if tail:
            streams.append([RowBatch(tail)])
        return flatten_batches(
            merge_sorted_streams(streams, suffix_positions, ctx))

    def ordered(segment: list[tuple]) -> Iterable[tuple]:
        # One complete segment in target order (as many rows as it holds).
        metrics.segments_sorted += 1
        if len(segment) < capacity:
            metrics.in_memory_sorts += 1
            return in_memory(segment)
        return spilled(segment)

    out: list[tuple] = []
    open_key: Optional[tuple] = None
    open_segment: list[tuple] = []
    for batch in batches:
        rows, keys = batch.rows, batch.key_tuples(prefix_positions)
        # The segment-boundary test is one key comparison per input row.
        counter.value += len(keys)
        starts = run_starts(keys)
        last = starts[-1]
        first = 0  # index in *starts* of the first run not dealt with
        if open_segment:
            if keys[0] == open_key:
                open_segment += rows[:starts[1]] if last else rows
                if not last:
                    continue  # still open at the end of this batch
                first = 1
            out.extend(ordered(open_segment))
        # The runs between the carried segment and the batch's last run
        # close inside this batch.  They go out as they stand — one-row
        # segments are in order already — and only the longer ones are
        # then replaced, in place, by their sorted selves.
        lo = starts[first]
        if lo < last:
            base = len(out) - lo
            out += rows[lo:last]
            begins, ends = starts[first:-1], starts[first + 1:]
            longer = list(compress(zip(begins, ends),
                                   map(gt, map(sub, ends, begins), repeat(1))))
            one_row = len(ends) - len(longer)
            metrics.segments_sorted += one_row
            metrics.in_memory_sorts += one_row
            for start, end in longer:
                out[base + start:base + end] = ordered(rows[start:end])
        open_key, open_segment = keys[last], rows[last:]
        if len(out) >= size:
            yield from drain_full(out, size)
    if open_segment:
        out.extend(ordered(open_segment))
    yield from batches_of(out, size)


def sort_batches(
    batches: Iterable[RowBatch],
    schema: Schema,
    target_order: SortOrder,
    ctx: ExecutionContext,
    known_prefix: SortOrder = SortOrder(),
    algorithm: str = "auto",
) -> Iterator[RowBatch]:
    """Sort a batch stream to *target_order*, dispatching SRS vs MRS.

    ``known_prefix`` is the sort order already guaranteed on the input
    (must be a prefix of *target_order*).  ``algorithm`` may force
    ``"srs"`` (ignore the prefix, as the systems in Experiment A1 do) or
    ``"mrs"``; ``"auto"`` uses MRS exactly when a usable prefix exists.
    """
    if algorithm not in ("auto", "srs", "mrs"):
        raise ValueError(f"unknown sort algorithm {algorithm!r}")
    if not known_prefix.is_prefix_of(target_order):
        raise ValueError(f"known prefix {known_prefix} is not a prefix of {target_order}")
    k = len(known_prefix)
    if algorithm == "mrs" and k == 0:
        raise ValueError("MRS requires a non-empty known sort-order prefix")

    positions = schema.positions(list(target_order))
    if algorithm == "mrs" or (algorithm == "auto" and 0 < k):
        if k >= len(target_order):
            # Input already fully sorted; nothing to do.
            return iter(batches)
        return mrs_sort(batches, positions[:k], positions[k:], ctx,
                        schema.row_bytes)
    return srs_sort(batches, positions, ctx, schema.row_bytes)


def sort_stream(rows: Iterable[tuple], schema: Schema, target_order: SortOrder,
                ctx: ExecutionContext, known_prefix: SortOrder = SortOrder(),
                algorithm: str = "auto") -> Iterator[tuple]:
    """Row adapter over :func:`sort_batches` (tests and examples)."""
    return flatten_batches(sort_batches(
        batches_of(rows, ctx.batch_size), schema, target_order, ctx,
        known_prefix, algorithm))
