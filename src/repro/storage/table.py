"""Base tables.

A :class:`Table` couples a schema with (optionally) materialised rows, a
clustering order and statistics.  Two flavours exist:

* **materialised** — rows are present; execution benchmarks use these;
* **stats-only** — only :class:`~repro.storage.statistics.TableStats` are
  declared.  The optimizer never looks at rows, so stats-only tables let
  us reproduce the paper's *estimated-cost* experiments (Figures 1, 2,
  15, 16) at the full published sizes (2M-row catalogs, 6M-row lineitem)
  without materialising them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from ..core.sort_order import EMPTY_ORDER, SortOrder, sorted_nulls_first
from .schema import FunctionalDependency, Schema
from .statistics import TableStats, measure_partitions, measure_shards


@dataclass(frozen=True)
class RangePartitioning:
    """A value-range partition spec: *bounds* are the ascending interior
    cut points, partition ``i`` holds rows whose *column* value falls in
    ``[bounds[i-1], bounds[i])`` (open at both ends).

    Unlike the engine's contiguous ``(shard_count, shard_index)`` row
    ranges, range partitions are defined by *values*: on a table not
    clustered on the partition column they select non-contiguous row
    sets.  Their payoff is that consecutive partitions are **disjoint on
    the partition key**, which lets an order-preserving gather on that
    key concatenate the partition streams instead of heap-merging them
    (see :class:`repro.engine.exchange.MergeExchange`).
    """

    column: str
    bounds: tuple

    def __post_init__(self) -> None:
        bounds = tuple(self.bounds)
        if not bounds:
            raise ValueError("range partitioning needs at least one bound")
        if any(not a < b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"partition bounds must be strictly ascending: {bounds}")
        object.__setattr__(self, "bounds", bounds)

    @property
    def num_partitions(self) -> int:
        return len(self.bounds) + 1

    def partition_index(self, value) -> int:
        if value is None:
            return 0  # SQL NULLs sort first; keep them in the lowest partition
        return bisect_right(self.bounds, value)

    def spec_token(self) -> str:
        """Canonical text of the spec (repr/debugging; cache keys use the
        table's version counter, bumped by :meth:`Table.set_partitioning`)."""
        return f"range({self.column}: {', '.join(map(repr, self.bounds))})"

    def __repr__(self) -> str:
        return f"RangePartitioning({self.spec_token()})"


class Table:
    """A named base relation."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Optional[list[tuple]] = None,
        clustering_order: SortOrder = EMPTY_ORDER,
        stats: Optional[TableStats] = None,
        primary_key: Optional[Sequence[str]] = None,
        partitioning: Optional[RangePartitioning] = None,
    ) -> None:
        if rows is None and stats is None:
            raise ValueError(f"table {name}: need rows or declared stats")
        for col in clustering_order:
            if col not in schema:
                raise ValueError(f"table {name}: clustering column {col!r} not in schema")
        if partitioning is not None and partitioning.column not in schema:
            raise ValueError(f"table {name}: partition column "
                             f"{partitioning.column!r} not in schema")
        self.name = name
        self.schema = schema
        self._rows = rows
        self.clustering_order = clustering_order
        self.partitioning = partitioning
        self.primary_key = tuple(primary_key) if primary_key else None
        if self.primary_key:
            for col in self.primary_key:
                if col not in schema:
                    raise ValueError(f"table {name}: key column {col!r} not in schema")
        if rows is not None and clustering_order:
            self._sort_rows_by(clustering_order)
        self._stats = stats if stats is not None else TableStats.measure(self._rows or [], schema)
        #: Bumped every time the table's statistics are replaced; plan
        #: caches key on it so stale plans are invalidated (see
        #: :mod:`repro.service.plan_cache`).
        self.stats_version = 0
        self._shard_stats_cache: dict[int, list[TableStats]] = {}
        self._partition_stats_cache: Optional[list[TableStats]] = None
        self._partition_ranges_cache: Optional[list[tuple[int, int]]] = None

    # -- statistics -----------------------------------------------------------------
    @property
    def stats(self) -> TableStats:
        return self._stats

    @stats.setter
    def stats(self, new_stats: TableStats) -> None:
        self._stats = new_stats
        self.stats_version += 1
        self._shard_stats_cache.clear()
        self._partition_stats_cache = None
        # Row contents may have changed along with the statistics — the
        # bisected partition row ranges are measured state too.
        self._partition_ranges_cache = None

    def update_stats(self, new_stats: Optional[TableStats] = None) -> TableStats:
        """Replace the table's statistics (re-measuring from rows when no
        explicit stats are given) and bump :attr:`stats_version`.  A
        stats-only table has no rows to measure: it needs *new_stats*."""
        if new_stats is None:
            if self._rows is None:
                raise ValueError(f"table {self.name} is stats-only: its "
                                 "statistics cannot be re-measured")
            new_stats = TableStats.measure(self._rows, self.schema)
        self.stats = new_stats
        return new_stats

    def shard_stats(self, shard_count: int) -> Optional[list[TableStats]]:
        """Measured statistics of each contiguous *shard_count*-way shard,
        or ``None`` for stats-only tables (the optimizer then falls back
        to the uniform ``scaled(1/k)`` estimate).  Cached per shard count;
        invalidated whenever the table's statistics are replaced."""
        if self._rows is None or shard_count < 2 or len(self._rows) < shard_count:
            return None
        cached = self._shard_stats_cache.get(shard_count)
        if cached is None:
            cached = measure_shards(self._rows, self.schema, shard_count)
            self._shard_stats_cache[shard_count] = cached
        return cached

    def partition_stats(self) -> Optional[list[TableStats]]:
        """Measured statistics of each range partition, or ``None`` when
        the table is stats-only or unpartitioned."""
        if self._rows is None or self.partitioning is None:
            return None
        if self._partition_stats_cache is None:
            position = self.schema.positions([self.partitioning.column])[0]
            self._partition_stats_cache = measure_partitions(
                self._rows, self.schema, position,
                self.partitioning.partition_index,
                self.partitioning.num_partitions)
        return self._partition_stats_cache

    # -- range partitioning ----------------------------------------------------------
    def set_partitioning(self, partitioning: Optional[RangePartitioning]) -> None:
        """(Re)declare the table's range partition spec.

        Counts as a physical-layout change: bumps :attr:`stats_version`
        so plan caches keyed on the table's version re-optimize — the
        partition spec participates in plan choice exactly like an index.
        """
        if partitioning is not None and partitioning.column not in self.schema:
            raise ValueError(f"table {self.name}: partition column "
                             f"{partitioning.column!r} not in schema")
        self.partitioning = partitioning
        self.stats_version += 1
        self._partition_stats_cache = None
        self._partition_ranges_cache = None

    @property
    def partition_contiguous(self) -> bool:
        """Whether range partitions map to contiguous row ranges — true
        when the clustering order leads with the partition column, so a
        partition scan can slice instead of filtering the whole table."""
        return (self.partitioning is not None
                and bool(self.clustering_order)
                and self.clustering_order[0] == self.partitioning.column)

    def partition_row_bounds(self, partition_index: int) -> Optional[tuple[int, int]]:
        """Global row range ``[lo, hi)`` of one range partition, or
        ``None`` when partitions are not contiguous row ranges."""
        if self._rows is None or not self.partition_contiguous:
            return None
        if self._partition_ranges_cache is None:
            part = self.partitioning
            position = self.schema.positions([part.column])[0]
            cuts = [0]
            for bound in part.bounds:
                cuts.append(bisect_left(self._rows, bound,
                                        key=lambda row: row[position]))
            cuts.append(len(self._rows))
            self._partition_ranges_cache = list(zip(cuts, cuts[1:]))
        return self._partition_ranges_cache[partition_index]

    # -- rows ----------------------------------------------------------------------
    @property
    def is_materialized(self) -> bool:
        return self._rows is not None

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            raise RuntimeError(
                f"table {self.name} is stats-only (optimizer experiments); "
                "it cannot be scanned by the executor"
            )
        return self._rows

    def __len__(self) -> int:
        return self.stats.num_rows if self._rows is None else len(self._rows)

    def _sort_rows_by(self, order: SortOrder) -> None:
        self._rows[:] = sorted_nulls_first(
            self._rows, self.schema.positions(list(order)))

    # -- physical properties ---------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        from .statistics import blocks_for
        return blocks_for(len(self), self.schema.row_bytes)

    def functional_dependencies(self) -> list[FunctionalDependency]:
        """FDs induced by the primary key, if declared."""
        if not self.primary_key:
            return []
        return [FunctionalDependency.key(self.primary_key, self.schema.names)]

    def __repr__(self) -> str:
        kind = "materialized" if self.is_materialized else "stats-only"
        return (f"Table({self.name}, {len(self)} rows, {kind}, "
                f"clustered on {self.clustering_order})")


class Index:
    """A secondary index over a table.

    ``key`` is the index sort order; ``included`` lists extra columns
    stored in the leaves.  An index *covers* a set of attributes when
    key ∪ included ⊇ attributes — the paper's query-covering indices
    ("secondary indices that cover a query make it very efficient to
    obtain desired sort orders without accessing the data pages").
    """

    def __init__(self, name: str, table: Table, key: SortOrder,
                 included: Sequence[str] = ()) -> None:
        for col in list(key) + list(included):
            if col not in table.schema:
                raise ValueError(f"index {name}: column {col!r} not in {table.name}")
        overlap = set(included) & key.attrs()
        if overlap:
            raise ValueError(f"index {name}: included columns {overlap} duplicate key columns")
        self.name = name
        self.table = table
        self.key = key
        self.included = tuple(included)
        #: ``((table stats_version, row count), leaf entries)`` of the
        #: last :meth:`scan_rows`; never part of the worker handoff.
        self._leaf_image: Optional[tuple[tuple[int, int], list[tuple]]] = None

    @property
    def columns(self) -> tuple[str, ...]:
        """All columns available from the index leaves, key first."""
        return (*self.key, *self.included)

    def covers(self, attributes: Iterable[str]) -> bool:
        return set(attributes) <= set(self.columns)

    def entry_bytes(self) -> int:
        """Average leaf-entry width: the covered columns plus a row pointer."""
        schema = self.table.schema
        width = sum(schema[c].avg_size for c in self.columns)
        return width + 8  # 8-byte TID

    @property
    def leaf_schema(self) -> Schema:
        return self.table.schema.project(list(self.columns))

    def scan_rows(self) -> list[tuple]:
        """Leaf entries (covered columns only), in index-key order,
        NULLS FIRST.  The image is built on the first request and kept —
        shared by every scan of the index, so not the caller's to change
        — until the table's ``stats_version`` or row count moves."""
        table = self.table
        version = (table.stats_version, len(table.rows))
        if self._leaf_image is None or self._leaf_image[0] != version:
            entry = itemgetter(*table.schema.positions(list(self.columns)))
            entries = (list(map(entry, table.rows)) if len(self.columns) > 1
                       else [(value,) for value in map(entry, table.rows)])
            # The key columns lead the entry.
            self._leaf_image = version, sorted_nulls_first(
                entries, range(len(self.key)))
        return self._leaf_image[1]

    def __repr__(self) -> str:
        inc = f" include {list(self.included)}" if self.included else ""
        return f"Index({self.name} on {self.table.name} {self.key}{inc})"
