"""Example 1's data-consolidation workload (Section 3, Figures 1–2).

Two catalog tables from different sources, joined on four attributes,
plus a small rating table; the ORDER BY spans seven columns.  The paper
uses:

* ``catalog1`` — 2M rows × 100 B, clustered on ``year``;
* ``catalog2`` — 2M rows × 80 B, clustered on ``make``;
* ``rating``   — 2K rows × 40 B, with a covering index on ``make``
  including ``year`` and ``rating``.

The stats-only variant carries exactly those numbers; the materialised
variant scales them down for executable demos.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.sort_order import SortOrder
from ..logical import Query
from ..storage import Catalog, Schema, SystemParameters, TableStats

MAKES = 120
YEARS = 50
CITIES = 500
COLORS = 25

CATALOG1_SCHEMA = Schema.of(
    ("c1_make", "str", 12),
    ("c1_year", "int", 4),
    ("c1_city", "str", 16),
    ("c1_color", "str", 8),
    ("c1_sellreason", "str", 60),
)

CATALOG2_SCHEMA = Schema.of(
    ("c2_make", "str", 12),
    ("c2_year", "int", 4),
    ("c2_city", "str", 16),
    ("c2_color", "str", 8),
    ("c2_breakdowns", "int", 40),
)

RATING_SCHEMA = Schema.of(
    ("r_make", "str", 12),
    ("r_year", "int", 4),
    ("r_rating", "int", 24),
)

#: The four-attribute join between the two catalogs.
CATALOG_JOIN = [("c1_city", "c2_city"), ("c1_make", "c2_make"),
                ("c1_year", "c2_year"), ("c1_color", "c2_color")]
#: The two-attribute join with the rating table.
RATING_JOIN = [("c1_make", "r_make"), ("c1_year", "r_year")]


def consolidation_stats_catalog(
        params: Optional[SystemParameters] = None) -> Catalog:
    """Paper-scale (2M/2M/2K rows) stats-only catalog."""
    catalog = Catalog(params or SystemParameters())
    catalog.create_table(
        "catalog1", CATALOG1_SCHEMA,
        stats=TableStats(2_000_000, {
            "c1_make": MAKES, "c1_year": YEARS, "c1_city": CITIES,
            "c1_color": COLORS, "c1_sellreason": 1_000_000}),
        clustering_order=SortOrder(["c1_year"]))
    catalog.create_table(
        "catalog2", CATALOG2_SCHEMA,
        stats=TableStats(2_000_000, {
            "c2_make": MAKES, "c2_year": YEARS, "c2_city": CITIES,
            "c2_color": COLORS, "c2_breakdowns": 100}),
        clustering_order=SortOrder(["c2_make"]))
    catalog.create_table(
        "rating", RATING_SCHEMA,
        stats=TableStats(2_000, {
            "r_make": MAKES, "r_year": YEARS, "r_rating": 10}),
        clustering_order=SortOrder(["r_make", "r_year"]),
        primary_key=["r_make", "r_year"])
    catalog.create_index("rating_make_cov", "rating", SortOrder(["r_make"]),
                         included=["r_year", "r_rating"])
    return catalog


def consolidation_catalog(scale: float = 0.01, seed: int = 7,
                          params: Optional[SystemParameters] = None) -> Catalog:
    """Materialised, scaled-down consolidation catalog."""
    rng = random.Random(seed)
    catalog = Catalog(params or SystemParameters())
    n = max(1_000, int(2_000_000 * scale))
    makes = [f"make{m:03d}" for m in range(MAKES)]
    cities = [f"city{c:03d}" for c in range(CITIES)]
    colors = [f"col{c:02d}" for c in range(COLORS)]

    def listing():
        return (rng.choice(makes), rng.randrange(1970, 1970 + YEARS),
                rng.choice(cities), rng.choice(colors))

    rows1 = [(*listing(), f"reason-{i}") for i in range(n)]
    # Half of catalog2 re-lists catalog1 entries (the consolidation
    # scenario: the same car advertised on both sources), so the
    # four-attribute join has matches even at small scales.
    rows2 = []
    for i in range(n):
        if i % 2 == 0:
            make, year, city, color, _ = rows1[rng.randrange(n)]
            rows2.append((make, year, city, color, rng.randrange(100)))
        else:
            rows2.append((*listing(), rng.randrange(100)))
    rating_rows = [(m, y, rng.randrange(1, 11))
                   for m in makes for y in range(1970, 1970 + YEARS)
                   if rng.random() < 2_000 / (MAKES * YEARS)]
    catalog.create_table("catalog1", CATALOG1_SCHEMA, rows=rows1,
                         clustering_order=SortOrder(["c1_year"]))
    catalog.create_table("catalog2", CATALOG2_SCHEMA, rows=rows2,
                         clustering_order=SortOrder(["c2_make"]))
    catalog.create_table("rating", RATING_SCHEMA, rows=rating_rows,
                         clustering_order=SortOrder(["r_make", "r_year"]),
                         primary_key=["r_make", "r_year"])
    catalog.create_index("rating_make_cov", "rating", SortOrder(["r_make"]),
                         included=["r_year", "r_rating"])
    return catalog


def example1_query() -> Query:
    """The paper's Example 1 (join of both catalogs and rating, 7-column
    ORDER BY)."""
    return (Query.table("catalog1")
            .join("catalog2", on=CATALOG_JOIN)
            .join("rating", on=RATING_JOIN)
            .order_by("c1_make", "c1_year", "c1_color", "c1_city",
                      "c1_sellreason", "c2_breakdowns", "r_rating"))
