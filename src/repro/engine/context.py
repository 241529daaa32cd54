"""Execution context: simulated block I/O accounting + CPU metering.

The paper evaluates everything in *I/O cost units* ("CPU cost is
appropriately translated into I/O cost units").  Our substrate holds all
data in RAM but charges every block transfer to an
:class:`IOAccountant`, and counts key comparisons, so experiments can
report a deterministic simulated cost alongside wall-clock time.

``ExecutionContext.cost_units()`` is the single number used by the
benchmark harness:  ``blocks_read + blocks_written +
comparisons / cpu_comparisons_per_io``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Optional, TYPE_CHECKING

from ..core.sort_order import null_safe_wrap
from ..storage.catalog import Catalog, SystemParameters
from .batch import DEFAULT_BATCH_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.schema import Schema


class ComparisonCounter:
    """A mutable comparison tally shared by the operators of a run.

    Kept as its own tiny object (not an int attribute) so that a hot
    loop can bump it without holding a reference to the whole context.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n


def key_lt(a: tuple, b: tuple) -> bool:
    """``a < b`` under the NULLS FIRST key order, on *raw* key tuples.

    The engine's one key discipline: raw tuple comparison decides at the
    first position where the keys differ, so it either gives exactly the
    :func:`null_safe_wrap` answer or raises ``TypeError`` because that
    position holds a NULL against a value — only then are the wrapped
    keys built.  NULL-free data never pays for wrapping.
    """
    try:
        return a < b
    except TypeError:
        return null_safe_wrap(a) < null_safe_wrap(b)


@dataclass
class IOAccountant:
    """Tally of simulated block transfers, split by purpose."""

    blocks_read: int = 0
    blocks_written: int = 0
    scan_blocks: int = 0
    run_blocks_written: int = 0
    run_blocks_read: int = 0
    partition_blocks: int = 0

    def read(self, blocks: int, *, category: str = "scan") -> None:
        if blocks < 0:
            raise ValueError("negative block count")
        self.blocks_read += blocks
        if category == "scan":
            self.scan_blocks += blocks
        elif category == "run":
            self.run_blocks_read += blocks
        elif category == "partition":
            self.partition_blocks += blocks

    def write(self, blocks: int, *, category: str = "run") -> None:
        if blocks < 0:
            raise ValueError("negative block count")
        self.blocks_written += blocks
        if category == "run":
            self.run_blocks_written += blocks
        elif category == "partition":
            self.partition_blocks += blocks

    @property
    def total_blocks(self) -> int:
        return self.blocks_read + self.blocks_written

    def snapshot(self) -> "IOAccountant":
        return IOAccountant(
            self.blocks_read, self.blocks_written, self.scan_blocks,
            self.run_blocks_written, self.run_blocks_read, self.partition_blocks,
        )


@dataclass
class SortMetrics:
    """Per-execution sort statistics surfaced by Experiments A1–A4."""

    runs_created: int = 0
    segments_sorted: int = 0
    rows_spilled: int = 0
    merge_passes: int = 0
    in_memory_sorts: int = 0


class ExecutionContext:
    """Everything an operator needs at run time."""

    def __init__(self, catalog: Optional[Catalog] = None,
                 params: Optional[SystemParameters] = None,
                 check_orders: bool = False,
                 batch_size: Optional[int] = None,
                 meter_timing: bool = False) -> None:
        self.catalog = catalog
        self.params = params or (catalog.params if catalog else SystemParameters())
        self.io = IOAccountant()
        self.comparisons = ComparisonCounter()
        self.sort_metrics = SortMetrics()
        #: When true, order-requiring operators verify their inputs are
        #: actually sorted (used heavily in tests; off in benchmarks).
        self.check_orders = check_orders
        #: Rows per :class:`~repro.engine.batch.RowBatch` produced by
        #: operators (a hint — selective operators may emit smaller
        #: batches).  ``batch_size=1`` degenerates to row-at-a-time.
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size or DEFAULT_BATCH_SIZE
        #: Per-operator estimated-vs-actual row counts, keyed by the
        #: meter tag stamped at lowering time (scan ops carry their table
        #: name in the tag).  Each cell is ``[estimated, actual]``; both
        #: are integers so shard contributions sum commutatively and
        #: worker absorb order cannot perturb the totals.
        self.operator_rows: dict[str, list[int]] = {}
        #: When true, metered operators additionally record inclusive
        #: wall time and batch counts into :attr:`operator_times`
        #: (EXPLAIN ANALYZE).  **Opt-in** — wall clocks are the one
        #: nondeterministic tally, so default executions keep
        #: :meth:`tallies` bit-identical across backends and runs.
        self.meter_timing = meter_timing
        #: Per-operator ``[seconds, batches]`` cells keyed like
        #: :attr:`operator_rows`; always empty unless ``meter_timing``.
        self.operator_times: dict[str, list] = {}
        #: Query-parameter values of the plan last started on this
        #: context (see :mod:`repro.engine.prepared`), read by operators
        #: whose expressions hold ``Param``s when ``execute_batches``
        #: starts — the lowered tree itself never depends on a value.
        self.binds: Mapping[str, Any] = {}

    # -- derived ---------------------------------------------------------------------
    def cost_units(self) -> float:
        """Simulated cost in the paper's I/O units."""
        cpu = self.comparisons.value / self.params.cpu_comparisons_per_io
        return self.io.total_blocks + cpu

    def rows_per_block(self, row_bytes: int) -> int:
        return max(1, self.params.block_size // max(1, row_bytes))

    def memory_capacity_rows(self, row_bytes: int) -> int:
        """How many rows of the given width fit in sort memory."""
        return max(2, self.params.sort_memory_bytes // max(1, row_bytes))

    def charge_blocks_for_rows(self, num_rows: int, row_bytes: int,
                               direction: str = "read", category: str = "scan") -> int:
        blocks = math.ceil(num_rows * row_bytes / self.params.block_size) if num_rows else 0
        if direction == "read":
            self.io.read(blocks, category=category)
        else:
            self.io.write(blocks, category=category)
        return blocks

    def charged_stream(self, rows: Iterable[tuple], row_bytes: int,
                       category: str = "scan") -> Iterator[tuple]:
        """Yield rows, charging one block read per block's worth of rows.

        Progressive charging (rather than a lump sum at open time) keeps
        the tuples-vs-cost timeline of Experiment A2 honest: an operator
        that stops early stops paying.
        """
        per_block = self.rows_per_block(row_bytes)
        for i, row in enumerate(rows):
            if i % per_block == 0:
                self.io.read(1, category=category)
            yield row

    def meter_start(self, tag: str, estimate: int) -> list:
        """Register one metered operator execution and return its cell.

        The estimate is credited up front (at iterator-open time); the
        caller bumps ``cell[1]`` as actual rows stream through.  Repeated
        executions under the same tag (per-shard subplans, re-runs)
        accumulate into one cell.
        """
        cell = self.operator_rows.get(tag)
        if cell is None:
            cell = [0, 0]
            self.operator_rows[tag] = cell
        cell[0] += estimate
        return cell

    def time_cell(self, tag: str) -> list:
        """The ``[seconds, batches]`` timing cell for *tag* (created on
        first use); like row cells, repeated executions under one tag
        accumulate."""
        cell = self.operator_times.get(tag)
        if cell is None:
            cell = [0.0, 0]
            self.operator_times[tag] = cell
        return cell

    # -- cross-process tallies ----------------------------------------------------------
    def tallies(self) -> dict:
        """All counters as a flat, picklable dict.

        The process-pool backend's workers charge their own context and
        ship this dict back with the result rows; the parent folds it in
        with :meth:`absorb_tallies` in shard order, so totals stay
        deterministic across worker scheduling.
        """
        return {
            "blocks_read": self.io.blocks_read,
            "blocks_written": self.io.blocks_written,
            "scan_blocks": self.io.scan_blocks,
            "run_blocks_written": self.io.run_blocks_written,
            "run_blocks_read": self.io.run_blocks_read,
            "partition_blocks": self.io.partition_blocks,
            "comparisons": self.comparisons.value,
            "runs_created": self.sort_metrics.runs_created,
            "segments_sorted": self.sort_metrics.segments_sorted,
            "rows_spilled": self.sort_metrics.rows_spilled,
            "merge_passes": self.sort_metrics.merge_passes,
            "in_memory_sorts": self.sort_metrics.in_memory_sorts,
            "operator_rows": {tag: (cell[0], cell[1])
                              for tag, cell in self.operator_rows.items()},
            "operator_times": {tag: (cell[0], cell[1])
                               for tag, cell in self.operator_times.items()},
        }

    def absorb_tallies(self, tallies: dict) -> None:
        """Fold a :meth:`tallies` dict (e.g. from a worker process) in."""
        self.io.blocks_read += tallies["blocks_read"]
        self.io.blocks_written += tallies["blocks_written"]
        self.io.scan_blocks += tallies["scan_blocks"]
        self.io.run_blocks_written += tallies["run_blocks_written"]
        self.io.run_blocks_read += tallies["run_blocks_read"]
        self.io.partition_blocks += tallies["partition_blocks"]
        self.comparisons.value += tallies["comparisons"]
        self.sort_metrics.runs_created += tallies["runs_created"]
        self.sort_metrics.segments_sorted += tallies["segments_sorted"]
        self.sort_metrics.rows_spilled += tallies["rows_spilled"]
        self.sort_metrics.merge_passes += tallies["merge_passes"]
        self.sort_metrics.in_memory_sorts += tallies["in_memory_sorts"]
        # ``.get``: pre-existing tally dicts (old snapshots, third-party
        # backends) may not carry the per-operator key.
        for tag, (estimated, actual) in tallies.get("operator_rows", {}).items():
            cell = self.operator_rows.get(tag)
            if cell is None:
                self.operator_rows[tag] = [estimated, actual]
            else:
                cell[0] += estimated
                cell[1] += actual
        for tag, (seconds, batches) in tallies.get("operator_times",
                                                   {}).items():
            cell = self.operator_times.get(tag)
            if cell is None:
                self.operator_times[tag] = [seconds, batches]
            else:
                cell[0] += seconds
                cell[1] += batches

    def reset(self) -> None:
        self.io = IOAccountant()
        self.comparisons = ComparisonCounter()
        self.sort_metrics = SortMetrics()
        self.operator_rows = {}
        self.operator_times = {}
