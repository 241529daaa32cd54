"""Row batches: the unit of data flow between physical operators.

The engine executes **batch-vectorized pull**: ``Operator.execute_batches``
yields :class:`RowBatch` chunks instead of single tuples, so the
Python-level dispatch cost (one generator resumption, one virtual call)
is paid once per *batch* rather than once per *row*.

A batch keeps a **dual representation**: a list of row tuples
(array-of-structs, the seed engine's layout) and a struct-of-arrays
column list.  Either side is materialised lazily from the other with a
single C-level ``zip`` transpose and then cached, so row-level consumers
(``batch.rows``) and whole-column kernels (``batch.column``,
:meth:`Expression.compile_batch <repro.expr.expressions.Expression.compile_batch>`)
each pay at most one transpose per batch.  Column views are zero-copy:
``column()`` returns the cached column object itself, and columnar
projection (:meth:`RowBatch.project`) re-uses the input's column objects
without copying values.

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
* the columnar path is an *identical-output* fast path: which evaluator
  a batch gets (row functions for row-backed batches under
  ``COLUMNAR_MIN_ROWS`` rows, kernels otherwise) changes wall-clock
  only, never rows, tallies or block charges.

``BlockCharger`` implements batch-aware block accounting: it charges
each simulated disk block exactly once as the scan cursor crosses it,
which makes the totals identical to the seed engine's per-row
progressive charging for every batch size.
"""

from __future__ import annotations

from itertools import chain, compress, islice
from operator import itemgetter, ne
from typing import Callable, Iterable, Iterator, Optional, Sequence

#: Default number of rows per batch.  Large enough to amortize operator
#: dispatch, small enough that a batch of wide rows stays cache-friendly.
DEFAULT_BATCH_SIZE = 1024

#: Below this many rows, whole-column kernels lose to the plain row loop
#: (the transpose + per-column dispatch overhead dominates), so operators
#: fall back to their compiled row path for tiny batches.
COLUMNAR_MIN_ROWS = 8


class _ColumnarTelemetry:
    """Process-wide count of batches that materialised a columnar side.

    A plain attribute bump (GIL-atomic enough for telemetry); surfaced
    through ``QuerySession.stats()`` / ``QueryServer.stats()`` together
    with the kernel-cache counters.
    """

    __slots__ = ("columnar_batches",)

    def __init__(self) -> None:
        self.columnar_batches = 0


_TELEMETRY = _ColumnarTelemetry()


def columnar_batches_total() -> int:
    """How many batches have been built or transposed columnar so far."""
    return _TELEMETRY.columnar_batches


def reset_columnar_batches() -> None:
    """Reset the columnar-batch counter (tests and benchmarks)."""
    _TELEMETRY.columnar_batches = 0


class RowBatch:
    """A chunk of rows flowing between operators (dual row/column layout).

    Deliberately minimal: iteration, length, indexing, and columnar
    accessors.  The wrapped row list / column lists are owned by the
    batch — operators that need to mutate rows must copy.
    """

    __slots__ = ("_rows", "_cols", "_colmemo", "_length")

    def __init__(self, rows: list[tuple]) -> None:
        self._rows = rows
        self._cols: Optional[list] = None
        self._colmemo: Optional[dict] = None
        self._length = len(rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], length: int) -> "RowBatch":
        """Build a columnar batch from equal-length column sequences.

        ``length`` is explicit so zero-column schemas keep their row
        count.  The column objects are adopted, not copied.
        """
        batch = cls.__new__(cls)
        batch._rows = None
        batch._cols = list(columns)
        batch._colmemo = None
        batch._length = length
        _TELEMETRY.columnar_batches += 1
        return batch

    # -- representation ---------------------------------------------------------------
    @property
    def is_columnar(self) -> bool:
        """True when the struct-of-arrays side is materialised."""
        return self._cols is not None

    @property
    def rows(self) -> list[tuple]:
        """The rows as a list of tuples (transposed from columns lazily)."""
        if self._rows is None:
            cols = self._cols
            self._rows = list(zip(*cols)) if cols else [()] * self._length
        return self._rows

    @property
    def columns(self) -> list:
        """All columns (transposed from rows lazily; zero-copy thereafter)."""
        if self._cols is None:
            self._cols = list(zip(*self._rows))
            if self._colmemo is None:  # already counted on first column()
                _TELEMETRY.columnar_batches += 1
        return self._cols

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def __bool__(self) -> bool:
        return self._length > 0

    # -- columnar access -------------------------------------------------------------
    def column(self, position: int) -> Sequence:
        """All values of one column (by schema position); zero-copy view.

        On a row-backed batch this extracts *only* the requested column
        (one C-level pass) and memoizes it — a kernel touching two of
        ten columns never pays for the other eight.  The full transpose
        happens only when ``columns`` itself is asked for.
        """
        if self._length == 0:
            return []
        cols = self._cols
        if cols is not None:
            return cols[position]
        memo = self._colmemo
        if memo is None:
            memo = self._colmemo = {}
            _TELEMETRY.columnar_batches += 1
        col = memo.get(position)
        if col is None:
            col = memo[position] = list(map(itemgetter(position), self._rows))
        return col

    def _is_identity(self, positions: Sequence[int]) -> bool:
        width = (len(self._cols) if self._cols is not None
                 else (len(self._rows[0]) if self._rows else 0))
        return len(positions) == width and list(positions) == list(range(width))

    def take(self, positions: Sequence[int]) -> list[tuple]:
        """Project every row to the given positions.

        Identity projections return the batch's own row list without
        building new tuples.
        """
        if not self._length:
            return []
        if self._is_identity(positions):
            return self.rows
        if len(positions) == 1:
            pos = positions[0]
            return list(zip(self._cols[pos] if self._cols is not None
                            else map(itemgetter(pos), self._rows)))
        return list(map(itemgetter(*positions), self.rows))

    def project(self, positions: Sequence[int]) -> "RowBatch":
        """A batch projected to the given positions.

        Identity projections return ``self``; columnar inputs re-use the
        column objects (zero copies); row-backed inputs build new tuples.
        """
        if self._is_identity(positions):
            return self
        if self._cols is not None:
            cols = self._cols
            return RowBatch.from_columns([cols[p] for p in positions], self._length)
        return RowBatch(self.take(positions))

    def key_tuples(self, positions: Sequence[int]) -> list[tuple]:
        """Per-row key tuples over the given positions (join/group keys)."""
        if not self._length:
            return []
        if not positions:
            return [()] * self._length
        if self._cols is not None:
            cols = self._cols
            return list(zip(*[cols[p] for p in positions]))
        if len(positions) == 1:
            return list(zip(map(itemgetter(positions[0]), self._rows)))
        return list(map(itemgetter(*positions), self._rows))

    def filter(self, keep: Callable[[tuple], bool]) -> "RowBatch":
        """A new batch holding only rows satisfying *keep*."""
        return RowBatch([row for row in self.rows if keep(row)])

    def compress(self, mask: Sequence) -> "RowBatch":
        """Rows at truthy mask positions (the selection-vector apply).

        Returns ``self`` untouched when every row survives, and an empty
        (falsy) batch when none do.
        """
        # Prefer the row side when it exists: one C-level compress (its
        # length is the survivor count) beats a per-column compress plus
        # the transpose a row consumer would pay downstream.
        if self._rows is not None:
            kept = list(compress(self._rows, mask))
            return self if len(kept) == self._length else RowBatch(kept)
        alive = sum(map(bool, mask))
        if alive == self._length:
            return self
        if alive == 0:
            return RowBatch([])
        return RowBatch.from_columns(
            [tuple(compress(col, mask)) for col in self._cols], alive)

    def head(self, n: int) -> "RowBatch":
        """The first *n* rows (``self`` when the batch is no longer)."""
        if n >= self._length:
            return self
        if self._rows is not None:
            return RowBatch(self._rows[:n])
        return RowBatch.from_columns([col[:n] for col in self._cols], n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        layout = "columnar" if self._cols is not None else "rows"
        return f"RowBatch({self._length} rows, {layout})"


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


class BatchBuilder:
    """Accumulates output rows and emits full batches.

    Usage inside an operator generator::

        out = BatchBuilder(ctx.batch_size)
        for batch in child.execute_batches(ctx):
            for row in batch:
                ...
                full = out.append(result_row)
                if full is not None:
                    yield full
        tail = out.flush()
        if tail is not None:
            yield tail
    """

    __slots__ = ("batch_size", "_rows")

    def __init__(self, batch_size: int) -> None:
        self.batch_size = batch_size
        self._rows: list[tuple] = []

    def append(self, row: tuple) -> Optional[RowBatch]:
        """Add one row; returns a full batch when the buffer fills."""
        self._rows.append(row)
        if len(self._rows) >= self.batch_size:
            return self.flush()
        return None

    def extend(self, rows: Iterable[tuple]) -> Optional[RowBatch]:
        """Add many rows; returns a (possibly oversized) batch when full."""
        self._rows.extend(rows)
        if len(self._rows) >= self.batch_size:
            return self.flush()
        return None

    def flush(self) -> Optional[RowBatch]:
        """Emit whatever is buffered (None when empty)."""
        if not self._rows:
            return None
        batch = RowBatch(self._rows)
        self._rows = []
        return batch


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
