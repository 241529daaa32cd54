"""Scan operators: table scan, clustering-index scan, covering-index
scan, and sharded (partitioned) table scans.

The distinction the paper draws (Figures 1, 2, 10, 11):

* **Table scan** — reads all data blocks; output carries the table's
  physical (clustering) order since our tables are stored clustered.
* **Clustering-index scan** ("C.Idx Scan") — same block count, output
  order is the clustering order; kept as a separate operator so plans
  read like the paper's.
* **Covering-index scan** ("Cov. Idx Scan") — reads only the (narrower)
  index leaf blocks and delivers the *index key order* without touching
  data pages; this is what makes alternative sort orders cheap and is
  the main motivation for favorable orders.

Scans are the batch producers of the engine: they slice the table's row
list directly into :class:`~repro.engine.batch.RowBatch` chunks and
charge block I/O per batch via :class:`~repro.engine.batch.BlockCharger`
(totals identical to the seed's per-row progressive charging).

Scan batches are deliberately *row-backed*: storage holds row tuples, so
transposing eagerly here would pay for columns no consumer wants.  The
first columnar consumer above (a kernel-bearing Filter/Compute/aggregate)
triggers the one C-level transpose via ``RowBatch.columns``, and the
batch caches it — scans never transpose on a pure row-pipeline plan.

**Sharding**: every table scan carries a partition spec
``(shard_count, shard_index)``; shard *i* covers the contiguous row
range ``[i·n/count, (i+1)·n/count)``.  Contiguous ranges mean each shard
inherits the table's clustering order *and* concatenating the shards in
index order reproduces the full clustered stream — which is what lets
:class:`~repro.engine.exchange.ExchangeUnion` fan shards back together
without a merge.  A shard whose range starts mid-block charges that
opening partial block too: it really does read it.
"""

from __future__ import annotations

from typing import Iterator

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..storage.table import Index, Table
from .batch import BlockCharger, RowBatch, batches_of
from .context import ExecutionContext
from .iterators import Operator


def shardable(table: Table, shard_count: int) -> bool:
    """Whether *table* supports a contiguous *shard_count*-way fan-out.

    The optimizer's shard-aware placement asks this before it proposes a
    fan-out (the engine shards nothing on its own): the table must hold
    materialised rows (stats-only tables cannot be scanned) and at least
    one row per shard.
    """
    return (shard_count >= 2 and table.is_materialized
            and len(table.rows) >= shard_count)


def range_shardable(table: Table) -> bool:
    """Whether *table* supports a value-range fan-out: a declared
    :class:`~repro.storage.table.RangePartitioning` over materialised
    rows.  The fan-out width is fixed by the spec, not by the caller."""
    return (table.is_materialized and table.partitioning is not None
            and table.partitioning.num_partitions >= 2)


def shard_bounds(num_rows: int, shard_count: int, shard_index: int) -> tuple[int, int]:
    """Global row range ``[lo, hi)`` of one contiguous shard."""
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard_index {shard_index} outside [0, {shard_count})")
    lo = shard_index * num_rows // shard_count
    hi = (shard_index + 1) * num_rows // shard_count
    return lo, hi


def _charged_slices(rows: list[tuple], lo: int, hi: int, per_block: int,
                    ctx: ExecutionContext, category: str = "scan"
                    ) -> Iterator[RowBatch]:
    """Batches of ``rows[lo:hi]``, charging blocks as the cursor advances."""
    charger = BlockCharger(ctx.io, per_block, category)
    batch_size = ctx.batch_size
    for start in range(lo, hi, batch_size):
        end = min(start + batch_size, hi)
        charger.charge_range(start, end)
        yield RowBatch(rows[start:end])


class TableScan(Operator):
    """Full scan of a materialised table, optionally one shard of it.

    ``shard_count``/``shard_index`` select a contiguous partition of the
    stored rows; the default ``(1, 0)`` spec scans everything.
    """

    name = "TableScan"

    def __init__(self, table: Table, shard_count: int = 1,
                 shard_index: int = 0) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not 0 <= shard_index < shard_count:
            raise ValueError(f"shard_index {shard_index} outside [0, {shard_count})")
        super().__init__(table.schema, table.clustering_order)
        self.table = table
        self.shard_count = shard_count
        self.shard_index = shard_index

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        rows = self.table.rows
        lo, hi = shard_bounds(len(rows), self.shard_count, self.shard_index)
        per_block = ctx.rows_per_block(self.schema.row_bytes)
        return _charged_slices(rows, lo, hi, per_block, ctx)

    def details(self) -> str:
        if self.shard_count > 1:
            return f"{self.table.name} shard {self.shard_index}/{self.shard_count}"
        return self.table.name


class ShardedScan(TableScan):
    """One shard of a table scan — explicit name for explain output.

    Semantically identical to ``TableScan(table, shard_count, shard_index)``;
    sharded plans lower to these under an ExchangeUnion or MergeExchange.
    """

    name = "ShardedScan"

    def __init__(self, table: Table, shard_count: int, shard_index: int) -> None:
        if shard_count < 2:
            raise ValueError("ShardedScan needs shard_count >= 2; "
                             "use TableScan for an unsharded scan")
        super().__init__(table, shard_count, shard_index)


class RangePartitionScan(Operator):
    """Scan one value-range partition of a table.

    When the table is clustered on the partition column the partition is
    a contiguous row range and the scan slices it directly, charging only
    that slice's blocks (like a :class:`ShardedScan` with value-derived
    bounds).  Otherwise the partition's rows are scattered, so the scan
    reads **every** data block and filters — the realistic cost of
    range-sharding a table whose physical layout doesn't match the spec,
    and the reason the optimizer prices the two layouts differently.

    Either way the output preserves the table's clustering order (a
    filter keeps relative order), and consecutive partitions are disjoint
    on the partition column — the property the partition-aware
    :class:`~repro.engine.exchange.MergeExchange` exploits.
    """

    name = "RangePartitionScan"

    def __init__(self, table: Table, partition_index: int) -> None:
        part = table.partitioning
        if part is None:
            raise ValueError(f"table {table.name} has no range partitioning")
        if not 0 <= partition_index < part.num_partitions:
            raise ValueError(f"partition_index {partition_index} outside "
                             f"[0, {part.num_partitions})")
        super().__init__(table.schema, table.clustering_order)
        self.table = table
        self.partitioning = part
        self.partition_index = partition_index

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        rows = self.table.rows
        per_block = ctx.rows_per_block(self.schema.row_bytes)
        bounds = self.table.partition_row_bounds(self.partition_index)
        if bounds is not None:
            lo, hi = bounds
            return _charged_slices(rows, lo, hi, per_block, ctx)
        return self._filtered_scan(rows, per_block, ctx)

    def _filtered_scan(self, rows: list[tuple], per_block: int,
                       ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Full scan keeping only this partition's rows: every block is
        read (and charged), matching rows re-batch as they are found."""
        charger = BlockCharger(ctx.io, per_block, "scan")
        position = self.table.schema.positions([self.partitioning.column])[0]
        index_of = self.partitioning.partition_index
        target = self.partition_index
        batch_size = ctx.batch_size
        for start in range(0, len(rows), batch_size):
            end = min(start + batch_size, len(rows))
            charger.charge_range(start, end)
            kept = [row for row in rows[start:end]
                    if index_of(row[position]) == target]
            if kept:
                yield RowBatch(kept)

    def details(self) -> str:
        part = self.partitioning
        layout = "clustered" if self.table.partition_contiguous else "filtered"
        return (f"{self.table.name} partition {self.partition_index}/"
                f"{part.num_partitions} on {part.column} ({layout})")


class ClusteringIndexScan(Operator):
    """Scan in clustering order; identical cost to a table scan here."""

    name = "ClusteringIndexScan"

    def __init__(self, table: Table) -> None:
        if not table.clustering_order:
            raise ValueError(f"table {table.name} has no clustering order")
        super().__init__(table.schema, table.clustering_order)
        self.table = table

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        rows = self.table.rows
        per_block = ctx.rows_per_block(self.schema.row_bytes)
        return _charged_slices(rows, 0, len(rows), per_block, ctx)

    def details(self) -> str:
        return f"{self.table.name} via {self.output_order}"


class CoveringIndexScan(Operator):
    """Scan the leaf level of a covering secondary index.

    Yields only the covered columns, in index-key order, charging block
    I/O at the (narrow) index-entry width rather than the full row width.
    """

    name = "CoveringIndexScan"

    def __init__(self, index: Index) -> None:
        super().__init__(index.leaf_schema, index.key)
        self.index = index
        self._entry_bytes = index.entry_bytes()

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        # The index keeps its leaf image per table version; asking for it
        # here — on the first pull, inside this scan's own (timed) stream,
        # not while a parent merely asks for the stream — is what builds
        # it the first time.
        leaf_rows = self.index.scan_rows()
        per_block = max(1, ctx.params.block_size // self._entry_bytes)
        yield from _charged_slices(leaf_rows, 0, len(leaf_rows), per_block, ctx)

    def details(self) -> str:
        inc = f" include {list(self.index.included)}" if self.index.included else ""
        return f"{self.index.table.name}.{self.index.name} {self.index.key}{inc}"


class RowSource(Operator):
    """An in-memory row source (for tests and sub-plans); charges no I/O
    unless ``charge_io`` is set."""

    name = "RowSource"

    def __init__(self, schema, rows: list[tuple], output_order: SortOrder = EMPTY_ORDER,
                 charge_io: bool = False) -> None:
        super().__init__(schema, output_order)
        self.rows_data = rows
        self.charge_io = charge_io

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        if self.charge_io:
            per_block = ctx.rows_per_block(self.schema.row_bytes)
            return _charged_slices(self.rows_data, 0, len(self.rows_data),
                                   per_block, ctx)
        return batches_of(self.rows_data, ctx.batch_size)

    def details(self) -> str:
        return f"{len(self.rows_data)} rows"
