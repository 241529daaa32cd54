"""Worker-side catalog handoff for the process-pool execution backend.

A worker process cannot share the serving process's :class:`Catalog`
object graph — it needs its own copy of every table a shipped subplan
might scan.  :func:`catalog_payload` snapshots a catalog into a single
picklable :class:`CatalogPayload` (schemas, rows, clustering orders,
statistics, partition specs, covering indexes and the system
parameters), and :func:`build_catalog` reconstructs an equivalent
catalog on the worker side.

The payload is shipped **once per pool**, through the pool initializer —
not per query — so the per-task traffic is just the (small) pickled
subplan and the result rows.  Under the ``fork`` start method the
payload is inherited by reference and never actually serialized; under
``spawn`` it is pickled once per worker.

The payload also carries the source catalog's aggregate
:attr:`~repro.storage.catalog.Catalog.stats_version` as
:attr:`CatalogPayload.version_token`, so the process backend can cheaply
tell (``ProcessPoolBackend.stale()``) that its workers were built against
a catalog that has since changed (statistics refresh, new index, new
partitioning).  The pool does not rebuild itself on that: only
``ProcessPoolBackend.refresh()`` rebuilds it against the current
catalog, and until then every plan ships to the stale workers (none
runs in the serving process).  Statistics changes alone never alter
query *results* — only row changes do — but the token is bumped by
both, which errs on the safe side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.sort_order import SortOrder
from .catalog import Catalog, SystemParameters
from .schema import Schema
from .statistics import TableStats
from .table import RangePartitioning


@dataclass(frozen=True)
class _TableSpec:
    """Everything needed to rebuild one table in a worker."""

    name: str
    schema: Schema
    rows: Optional[list[tuple]]
    clustering_order: SortOrder
    stats: TableStats
    primary_key: Optional[tuple[str, ...]]
    partitioning: Optional[RangePartitioning]


@dataclass(frozen=True)
class _IndexSpec:
    name: str
    table_name: str
    key: SortOrder
    included: tuple[str, ...]


@dataclass(frozen=True)
class CatalogPayload:
    """A picklable snapshot of a catalog (see module docstring)."""

    params: SystemParameters
    tables: tuple[_TableSpec, ...]
    indexes: tuple[_IndexSpec, ...]
    version_token: int


def catalog_payload(catalog: Catalog) -> CatalogPayload:
    """Snapshot *catalog* for shipping to worker processes."""
    tables = []
    indexes = []
    for table in catalog.tables():
        tables.append(_TableSpec(
            name=table.name,
            schema=table.schema,
            rows=table._rows,
            clustering_order=table.clustering_order,
            stats=table.stats,
            primary_key=table.primary_key,
            partitioning=table.partitioning,
        ))
        for index in catalog.indexes_of(table.name):
            indexes.append(_IndexSpec(index.name, table.name, index.key,
                                      index.included))
    return CatalogPayload(catalog.params, tuple(tables), tuple(indexes),
                          catalog.stats_version)


def build_catalog(payload: CatalogPayload) -> Catalog:
    """Reconstruct a worker-side catalog from a payload.

    Rows are installed as-is (they were snapshotted already clustered),
    and declared statistics are reused instead of re-measured, so the
    rebuilt tables are byte-for-byte equivalent scan sources.
    """
    catalog = Catalog(payload.params)
    for spec in payload.tables:
        # Pass clustering separately from rows to skip the constructor's
        # re-sort: the snapshot rows are already in clustering order.
        table = catalog.create_table(spec.name, spec.schema, rows=spec.rows,
                                     stats=spec.stats,
                                     primary_key=spec.primary_key,
                                     partitioning=spec.partitioning)
        table.clustering_order = spec.clustering_order
    for index in payload.indexes:
        catalog.create_index(index.name, index.table_name, index.key,
                             index.included)
    return catalog
