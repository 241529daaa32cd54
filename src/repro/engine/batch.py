"""Row batches: the unit of data flow between physical operators.

The engine executes **batch-vectorized pull**: ``Operator.execute_batches``
yields :class:`RowBatch` chunks instead of single tuples, so the
Python-level dispatch cost (one generator resumption, one virtual call)
is paid once per *batch* rather than once per *row*.

A batch is a list of row tuples.  The operators that evaluate
expressions run one generated kernel over that list
(:mod:`repro.engine.kernels`), so no operator needs a column layout.

Contract (see ``docs/execution.md``):

* batches are **non-empty**; an empty stream yields no batches;
* batch *sizes are a hint*, not a guarantee — producers aim for
  ``ExecutionContext.batch_size`` rows but selective operators may emit
  smaller batches rather than re-buffer;
* concatenating the batches of a stream yields exactly the rows (and
  row order) the row-at-a-time engine produced — simulated I/O and
  comparison counts are **independent of the batch size** for
  run-to-completion queries (early-terminating consumers pay I/O at
  batch granularity; ``batch_size=1`` reproduces row-level payment);
* an expression has one evaluator, the generated kernel of the operator
  holding it, which takes a batch of any size.

``BlockCharger`` implements batch-aware block accounting: it charges
each simulated disk block exactly once as the scan cursor crosses it,
which makes the totals identical to the seed engine's per-row
progressive charging for every batch size.
"""

from __future__ import annotations

from itertools import chain, compress, islice
from operator import itemgetter, ne
from typing import Iterable, Iterator, Sequence

#: Default number of rows per batch.  Large enough to amortize operator
#: dispatch, small enough that a batch of wide rows stays cache-friendly.
DEFAULT_BATCH_SIZE = 1024


class RowBatch:
    """A chunk of rows flowing between operators.

    Deliberately minimal: iteration, length, indexing and positional
    projection.  The wrapped row list is owned by the batch — operators
    that need to mutate rows must copy.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def __bool__(self) -> bool:
        return bool(self.rows)

    def _is_identity(self, positions: Sequence[int]) -> bool:
        width = len(self.rows[0]) if self.rows else 0
        return len(positions) == width and list(positions) == list(range(width))

    def take(self, positions: Sequence[int]) -> list[tuple]:
        """Project every row to the given positions.

        Identity projections return the batch's own row list without
        building new tuples.
        """
        rows = self.rows
        if not rows:
            return []
        if self._is_identity(positions):
            return rows
        if len(positions) == 1:
            return list(zip(map(itemgetter(positions[0]), rows)))
        return list(map(itemgetter(*positions), rows))

    def project(self, positions: Sequence[int]) -> "RowBatch":
        """A batch projected to the given positions (``self`` for an
        identity projection)."""
        if self._is_identity(positions):
            return self
        return RowBatch(self.take(positions))

    def key_tuples(self, positions: Sequence[int]) -> list[tuple]:
        """Per-row key tuples over the given positions (join/group keys)."""
        rows = self.rows
        if not rows:
            return []
        if not positions:
            return [()] * len(rows)
        if len(positions) == 1:
            return list(zip(map(itemgetter(positions[0]), rows)))
        return list(map(itemgetter(*positions), rows))

    def head(self, n: int) -> "RowBatch":
        """The first *n* rows (``self`` when the batch is no longer)."""
        return self if n >= len(self.rows) else RowBatch(self.rows[:n])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowBatch({len(self.rows)} rows)"


def batches_of(rows: Iterable[tuple], batch_size: int) -> Iterator[RowBatch]:
    """Chunk a row iterable into non-empty batches of ≤ *batch_size*."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    it = iter(rows)
    while True:
        chunk = list(islice(it, batch_size))
        if not chunk:
            return
        yield RowBatch(chunk)


def flatten_batches(batches: Iterable[RowBatch]) -> Iterator[tuple]:
    """The row stream of a batch stream (for row-level consumers)."""
    return chain.from_iterable(batch.rows for batch in batches)


def collect_rows(batches: Iterable[RowBatch]) -> list[tuple]:
    """Materialise a batch stream to a row list (drives it to completion)."""
    out: list[tuple] = []
    for batch in batches:
        out.extend(batch.rows)
    return out


def drain_full(out: list[tuple], batch_size: int) -> Iterator[RowBatch]:
    """Cut every full *batch_size* chunk off the front of *out* (in
    place), leaving the remainder buffered — the chunking of
    :func:`batches_of` for operators that append whole groups."""
    full = len(out) - len(out) % batch_size
    for i in range(0, full, batch_size):
        yield RowBatch(out[i:i + batch_size])
    del out[:full]


def run_starts(keys: Sequence[tuple]) -> list[int]:
    """Start index of every run of equal adjacent *keys* (``[0, …]``).

    Raw-tuple inequality of each neighbouring pair, evaluated at C level
    for the whole list — how the order-exploiting operators find
    segment/group boundaries in a batch without a per-row Python step.
    """
    return [0, *compress(range(1, len(keys)),
                         map(ne, keys, islice(keys, 1, None)))]


def gather(items: Sequence, indices: Sequence[int]) -> Sequence:
    """``items`` at every one of *indices*, in one C-level call."""
    if len(indices) == 1:
        return (items[indices[0]],)
    return itemgetter(*indices)(items) if indices else ()


class GroupCursor:
    """Reads a batch stream group by group (one group = a maximal run of
    rows with equal raw keys, however many batches it spans).

    ``key`` is the raw key of the group about to be read, ``None`` once
    the stream is exhausted.  The next input batch is pulled only when a
    group reaches the end of the current one, so an abandoned input has
    been charged for no batch its consumer did not look at.

    The runs of the current batch are public so a consumer can handle
    many at once: run *i* is ``rows[starts[i]:stops[i]]`` with key
    ``run_keys[i]``, ``run`` is the index of the current group's run,
    and every run but the batch's last is **closed** (it ends inside the
    batch); the last may continue in the next batch.  :meth:`skip` moves
    past closed runs without building their groups.
    """

    __slots__ = ("key", "rows", "starts", "stops", "run_keys", "run",
                 "_batches", "_positions")

    def __init__(self, batches: Iterable[RowBatch],
                 positions: Sequence[int]) -> None:
        self._batches = iter(batches)
        self._positions = positions
        self._load()

    def _load(self) -> None:
        batch = next(self._batches, None)
        if batch is None:
            self.key = None
            return
        self.rows = batch.rows
        keys = batch.key_tuples(self._positions)
        starts = run_starts(keys)
        # One key per run; all-singleton batches already hold exactly that.
        self.run_keys = keys if len(starts) == len(keys) else gather(keys, starts)
        self.starts, self.stops = starts, [*starts[1:], len(keys)]
        self.run = 0
        self.key = keys[0]

    @property
    def last_run(self) -> int:
        """Index of the current batch's last (open) run: the runs in
        ``range(run, last_run)`` are the closed ones ahead."""
        return len(self.run_keys) - 1

    def skip(self, runs: int) -> None:
        """Advance past *runs* closed runs of the current batch."""
        self.run += runs
        self.key = self.run_keys[self.run]

    def next_group(self) -> list[tuple]:
        """Pop the rows of the current group and advance to the next."""
        key, group = self.key, []
        while True:
            run = self.run
            group += self.rows[self.starts[run]:self.stops[run]]
            if run + 1 < len(self.run_keys):  # the group closes inside this batch
                self.skip(1)
                return group
            self._load()
            if self.key != key:  # ... or at its end; else it continues
                return group


class BlockCharger:
    """Charges each simulated disk block exactly once per scan.

    Works on *global row indices*: block ``b`` holds rows
    ``[b·per_block, (b+1)·per_block)``.  ``charge_range(start, end)``
    charges every not-yet-charged block overlapping ``[start, end)``.
    For a scan starting at row 0 the total equals the seed engine's
    per-row progressive charging (one block per ``per_block`` rows) for
    any batching; for a sharded scan starting mid-block the opening
    partial block is charged too — a shard really does read it.
    """

    __slots__ = ("io", "per_block", "category", "_last_block")

    def __init__(self, io, per_block: int, category: str = "scan") -> None:
        if per_block < 1:
            raise ValueError("per_block must be >= 1")
        self.io = io
        self.per_block = per_block
        self.category = category
        self._last_block = -1

    def charge_range(self, start: int, end: int) -> int:
        """Charge blocks for rows ``[start, end)``; returns blocks charged."""
        if end <= start:
            return 0
        first = start // self.per_block
        last = (end - 1) // self.per_block
        if first <= self._last_block:
            first = self._last_block + 1
        if last < first:
            return 0
        blocks = last - first + 1
        self.io.read(blocks, category=self.category)
        self._last_block = last
        return blocks
