"""Workload generators for the paper's experiments."""

from .consolidation import (
    CATALOG_JOIN,
    RATING_JOIN,
    consolidation_catalog,
    consolidation_stats_catalog,
    example1_query,
)
from .synthetic import (
    MANY_JOIN_SIZES,
    identical_r_tables,
    many_join_catalog,
    many_join_query,
    query4,
    r_tables_stats_catalog,
    segmented_catalog,
    segmented_table_rows,
)
from .tpch import (
    add_query1_indexes,
    add_query2_indexes,
    add_query3_indexes,
    query3,
    tpch_catalog,
    tpch_stats_catalog,
)
from .trading import (
    Q5_JOIN,
    Q6_JOIN,
    query5,
    query6,
    trading_catalog,
    trading_stats_catalog,
)

__all__ = [
    "CATALOG_JOIN",
    "Q5_JOIN",
    "Q6_JOIN",
    "RATING_JOIN",
    "add_query1_indexes",
    "add_query2_indexes",
    "add_query3_indexes",
    "consolidation_catalog",
    "consolidation_stats_catalog",
    "example1_query",
    "MANY_JOIN_SIZES",
    "identical_r_tables",
    "many_join_catalog",
    "many_join_query",
    "query3",
    "query4",
    "query5",
    "query6",
    "r_tables_stats_catalog",
    "segmented_catalog",
    "segmented_table_rows",
    "tpch_catalog",
    "tpch_stats_catalog",
    "trading_catalog",
    "trading_stats_catalog",
]
