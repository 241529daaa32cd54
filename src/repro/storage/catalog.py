"""The catalog: a registry of tables and indexes.

The optimizer consults the catalog for statistics, clustering orders and
covering indexes; the executor consults it for rows.  A catalog also
carries system-wide physical parameters (block size, sort memory) so a
whole experiment is reproducible from one object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..core.sort_order import SortOrder
from .schema import FunctionalDependency, Schema
from .statistics import DEFAULT_BLOCK_SIZE, TableStats
from .table import Index, RangePartitioning, Table


@dataclass
class SystemParameters:
    """Physical parameters of the simulated system.

    Defaults follow the paper's running example: 4 KB blocks and
    10,000 blocks (40 MB) of sort memory.  ``cpu_comparisons_per_io``
    translates CPU comparison cost into I/O cost units (the paper states
    "CPU cost is appropriately translated into I/O cost units" without
    publishing the constant; the default of 200,000 comparisons per block
    I/O is this reproduction's assumption, not a figure from the paper).
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    sort_memory_blocks: int = 10_000
    cpu_comparisons_per_io: float = 200_000.0
    hash_build_rows_per_io: float = 400_000.0

    @property
    def sort_memory_bytes(self) -> int:
        return self.block_size * self.sort_memory_blocks


class Catalog:
    """Mutable registry of tables and their indexes."""

    def __init__(self, params: Optional[SystemParameters] = None) -> None:
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, Index] = {}
        self._by_table: dict[str, list[Index]] = {}
        self.params = params or SystemParameters()
        #: Bumped on every registration (tables/indexes) — part of the
        #: catalog-wide statistics version below.
        self._registry_version = 0
        #: Per-table registration bumps (index additions): part of each
        #: table's :meth:`table_version`, so plans referencing the table
        #: are invalidated without evicting plans over other tables.
        self._table_registry: dict[str, int] = {}

    # -- statistics versioning ---------------------------------------------------------
    @property
    def stats_version(self) -> int:
        """Monotonic version of everything a plan depends on: registered
        tables/indexes plus each table's statistics version.  Plan caches
        compare this to decide whether a cached plan is still valid."""
        return self._registry_version + sum(
            t.stats_version for t in self._tables.values())

    def refresh_stats(self, table_name: str,
                      stats: Optional["TableStats"] = None) -> "TableStats":
        """Replace (or re-measure) one table's statistics, bumping the
        catalog :attr:`stats_version` so cached plans are invalidated.
        A stats-only table takes only explicit *stats* (``ValueError``
        otherwise: it has no rows to measure)."""
        return self.table(table_name).update_stats(stats)

    def table_version(self, table_name: str) -> int:
        """Monotonic version of everything a plan depends on *for one
        table*: its statistics version plus its index registrations."""
        return (self.table(table_name).stats_version
                + self._table_registry.get(table_name, 0))

    def registry_versions(self, table_names: Iterable[str]
                          ) -> tuple[tuple[str, int], ...]:
        """Like :meth:`table_versions`, but counting only registrations
        (index additions), not statistics: what a re-prepare checks
        before it keeps a search's statistics-free group table."""
        return tuple(sorted((name, self._table_registry.get(name, 0))
                            for name in set(table_names)))

    def table_versions(self, table_names: Iterable[str]
                       ) -> tuple[tuple[str, int], ...]:
        """Canonical version token for a set of referenced tables.

        The serving layer keys cached plans on this token so that
        ``refresh_stats("orders")`` invalidates only plans that actually
        read ``orders`` (per-table invalidation granularity).
        """
        return tuple(sorted((name, self.table_version(name))
                            for name in set(table_names)))

    # -- registration ----------------------------------------------------------------
    def add_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        self._by_table.setdefault(table.name, [])
        self._table_registry.setdefault(table.name, 0)
        self._registry_version += 1
        return table

    def create_table(
        self,
        name: str,
        schema: Schema,
        rows: Optional[list[tuple]] = None,
        clustering_order: SortOrder = SortOrder(),
        stats: Optional[TableStats] = None,
        primary_key: Optional[Iterable[str]] = None,
        partitioning: Optional["RangePartitioning"] = None,
    ) -> Table:
        return self.add_table(
            Table(name, schema, rows, clustering_order, stats,
                  tuple(primary_key) if primary_key else None,
                  partitioning=partitioning)
        )

    def add_index(self, index: Index) -> Index:
        if index.name in self._indexes:
            raise ValueError(f"index {index.name!r} already registered")
        if index.table.name not in self._tables:
            raise ValueError(f"index {index.name!r} references unregistered table")
        self._indexes[index.name] = index
        self._by_table[index.table.name].append(index)
        self._table_registry[index.table.name] = \
            self._table_registry.get(index.table.name, 0) + 1
        self._registry_version += 1
        return index

    def create_index(self, name: str, table_name: str, key: SortOrder,
                     included: Iterable[str] = ()) -> Index:
        return self.add_index(Index(name, self.table(table_name), key, tuple(included)))

    def alias_table(self, source_name: str, alias: str, prefix: str) -> Table:
        """Register a renamed view of an existing table (for self-joins).

        Column names gain *prefix*; rows are shared with the source (no
        copy), statistics and clustering carry over.  Indexes are not
        aliased automatically — recreate the ones the query needs.
        """
        src = self.table(source_name)
        mapping = {c.name: f"{prefix}{c.name}" for c in src.schema}
        schema = src.schema.rename(mapping)
        clustering = src.clustering_order.translate(mapping)
        stats = TableStats(
            num_rows=src.stats.num_rows,
            distinct={mapping[c]: d for c, d in src.stats.distinct.items()},
            group_distinct={frozenset(mapping[c] for c in g): d
                            for g, d in src.stats.group_distinct.items()},
            sketches={mapping[c]: s for c, s in src.stats.sketches.items()},
        )
        rows = src._rows if src.is_materialized else None
        key = tuple(mapping[c] for c in src.primary_key) if src.primary_key else None
        table = Table(alias, schema, rows, clustering, stats, key)
        return self.add_table(table)

    # -- lookup ------------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table {name!r}; have {sorted(self._tables)}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def indexes_of(self, table_name: str) -> list[Index]:
        """``idx(R)``: all indexes over the table."""
        return list(self._by_table.get(table_name, []))

    def index(self, table_name: str, index_name: str) -> Index:
        """The index *index_name* over *table_name*."""
        for index in self._by_table.get(table_name, ()):
            if index.name == index_name:
                return index
        raise KeyError(f"no index {index_name!r} on table {table_name!r}")

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def functional_dependencies(self) -> list[FunctionalDependency]:
        fds: list[FunctionalDependency] = []
        for table in self._tables.values():
            fds.extend(table.functional_dependencies())
        return fds

    def __repr__(self) -> str:  # pragma: no cover
        return f"Catalog({sorted(self._tables)}, {len(self._indexes)} indexes)"
