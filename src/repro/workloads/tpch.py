"""TPC-H-like workload generator (`lineitem`, `partsupp`, `supplier`, `part`).

The paper's execution experiments use the TPC-H 1 GB dataset (scale
factor 1: 6,000,000 lineitem rows, 800,000 partsupp rows).  We generate
a deterministic synthetic equivalent:

* **materialised** at a configurable scale factor (default 1/100) for
  the execution experiments (A1, A4, B1 runtimes), and
* **stats-only** at the paper's full scale for the optimizer-cost
  experiments — the optimizer consults only the catalog statistics, so
  the published sizes can be used without materialising 6M rows.

Foreign keys hold by construction: every ``(l_partkey, l_suppkey)``
pair appearing in lineitem exists in partsupp (TPC-H links each part to
4 suppliers via an arithmetic rule, reproduced here).
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.sort_order import SortOrder
from ..expr import col
from ..expr.aggregates import agg_sum
from ..logical import Query
from ..storage import Catalog, Schema, SystemParameters, TableStats

#: TPC-H scale-factor-1 base cardinalities.
SF1_LINEITEM = 6_000_000
SF1_ORDERS = 1_500_000
SF1_PARTSUPP = 800_000
SF1_PART = 200_000
SF1_SUPPLIER = 10_000
SUPPLIERS_PER_PART = 4

LINEITEM_SCHEMA = Schema.of(
    ("l_orderkey", "int", 8),
    ("l_linenumber", "int", 4),
    ("l_partkey", "int", 8),
    ("l_suppkey", "int", 8),
    ("l_quantity", "int", 8),
    ("l_extendedprice", "num", 8),
    ("l_linestatus", "str", 1),
    ("l_comment", "str", 75),     # pads the row toward TPC-H's ~120 B
)

PARTSUPP_SCHEMA = Schema.of(
    ("ps_partkey", "int", 8),
    ("ps_suppkey", "int", 8),
    ("ps_availqty", "int", 8),
    ("ps_supplycost", "num", 8),
    ("ps_comment", "str", 124),   # TPC-H partsupp rows are wide (~144 B)
)

SUPPLIER_SCHEMA = Schema.of(
    ("s_suppkey", "int", 8),
    ("s_name", "str", 25),
    ("s_nationkey", "int", 4),
)

PART_SCHEMA = Schema.of(
    ("p_partkey", "int", 8),
    ("p_name", "str", 55),
    ("p_brand", "str", 10),
)


def supplier_for_part(partkey: int, j: int, num_suppliers: int) -> int:
    """TPC-H's part→supplier linkage: the j-th supplier of a part."""
    return ((partkey + j * (num_suppliers // SUPPLIERS_PER_PART + 1))
            % num_suppliers) + 1


def tpch_catalog(scale: float = 0.01, seed: int = 42,
                 params: Optional[SystemParameters] = None) -> Catalog:
    """Materialised TPC-H-like catalog at the given scale factor."""
    rng = random.Random(seed)
    catalog = Catalog(params or SystemParameters())

    num_parts = max(10, int(SF1_PART * scale))
    num_suppliers = max(SUPPLIERS_PER_PART, int(SF1_SUPPLIER * scale))
    num_lineitems = max(100, int(SF1_LINEITEM * scale))
    num_orders = max(10, int(SF1_ORDERS * scale))

    partsupp_rows = []
    for p in range(1, num_parts + 1):
        for j in range(SUPPLIERS_PER_PART):
            s = supplier_for_part(p, j, num_suppliers)
            partsupp_rows.append(
                (p, s, rng.randrange(1, 10_000), round(rng.uniform(1, 1000), 2),
                 "c" * 8))
    catalog.create_table(
        "partsupp", PARTSUPP_SCHEMA, rows=partsupp_rows,
        clustering_order=SortOrder(["ps_partkey", "ps_suppkey"]),
        primary_key=["ps_partkey", "ps_suppkey"])

    lineitem_rows = []
    for i in range(num_lineitems):
        orderkey = rng.randrange(1, num_orders + 1)
        p = rng.randrange(1, num_parts + 1)
        s = supplier_for_part(p, rng.randrange(SUPPLIERS_PER_PART), num_suppliers)
        lineitem_rows.append(
            (orderkey, i % 7 + 1, p, s, rng.randrange(1, 51),
             round(rng.uniform(1, 100_000), 2),
             "O" if rng.random() < 0.5 else "F", "x" * 8))
    lineitem = catalog.create_table(
        "lineitem", LINEITEM_SCHEMA, rows=lineitem_rows,
        clustering_order=SortOrder(["l_orderkey", "l_linenumber"]),
        primary_key=["l_orderkey", "l_linenumber"])
    # Extended statistic: (partkey, suppkey) pairs come from partsupp, so
    # their joint distinct count is far below the independence product.
    lineitem.stats.group_distinct[frozenset({"l_partkey", "l_suppkey"})] = len(
        {(r[2], r[3]) for r in lineitem_rows})

    supplier_rows = [(s, f"Supplier#{s:09d}", rng.randrange(25))
                     for s in range(1, num_suppliers + 1)]
    catalog.create_table("supplier", SUPPLIER_SCHEMA, rows=supplier_rows,
                         clustering_order=SortOrder(["s_suppkey"]),
                         primary_key=["s_suppkey"])

    part_rows = [(p, f"part {p}", f"Brand#{p % 50}")
                 for p in range(1, num_parts + 1)]
    catalog.create_table("part", PART_SCHEMA, rows=part_rows,
                         clustering_order=SortOrder(["p_partkey"]),
                         primary_key=["p_partkey"])
    return catalog


def tpch_stats_catalog(params: Optional[SystemParameters] = None) -> Catalog:
    """Stats-only TPC-H catalog at the paper's scale factor 1."""
    catalog = Catalog(params or SystemParameters())
    catalog.create_table(
        "partsupp", PARTSUPP_SCHEMA,
        stats=TableStats(SF1_PARTSUPP, {
            "ps_partkey": SF1_PART, "ps_suppkey": SF1_SUPPLIER,
            "ps_availqty": 9_999, "ps_supplycost": 100_000,
        }),
        clustering_order=SortOrder(["ps_partkey", "ps_suppkey"]),
        primary_key=["ps_partkey", "ps_suppkey"])
    catalog.create_table(
        "lineitem", LINEITEM_SCHEMA,
        stats=TableStats(SF1_LINEITEM, {
            "l_orderkey": SF1_ORDERS, "l_linenumber": 7,
            "l_partkey": SF1_PART, "l_suppkey": SF1_SUPPLIER,
            "l_quantity": 50, "l_extendedprice": 1_000_000, "l_linestatus": 2,
        }, group_distinct={
            frozenset({"l_partkey", "l_suppkey"}): SF1_PARTSUPP,
        }),
        clustering_order=SortOrder(["l_orderkey", "l_linenumber"]),
        primary_key=["l_orderkey", "l_linenumber"])
    catalog.create_table(
        "supplier", SUPPLIER_SCHEMA,
        stats=TableStats(SF1_SUPPLIER, {"s_suppkey": SF1_SUPPLIER}),
        clustering_order=SortOrder(["s_suppkey"]), primary_key=["s_suppkey"])
    catalog.create_table(
        "part", PART_SCHEMA,
        stats=TableStats(SF1_PART, {"p_partkey": SF1_PART}),
        clustering_order=SortOrder(["p_partkey"]), primary_key=["p_partkey"])
    return catalog


def add_query1_indexes(catalog: Catalog) -> None:
    """Experiment A1: secondary index on l_suppkey including l_partkey
    (covers Query 1)."""
    catalog.create_index("li_suppkey_cov", "lineitem",
                         SortOrder(["l_suppkey"]), included=["l_partkey"])


def add_query2_indexes(catalog: Catalog) -> None:
    """Experiment A4: lineitem(l_suppkey) and partsupp(ps_suppkey)
    covering indexes supplying the (suppkey, partkey) order partially."""
    catalog.create_index(
        "li_suppkey_q2", "lineitem", SortOrder(["l_suppkey"]),
        included=["l_partkey", "l_quantity"])
    catalog.create_index(
        "ps_suppkey_q2", "partsupp", SortOrder(["ps_suppkey"]),
        included=["ps_partkey", "ps_availqty"])


def add_query3_indexes(catalog: Catalog) -> None:
    """Experiment B1: the two covering secondary indexes of Query 3."""
    catalog.create_index(
        "ps_suppkey_cov", "partsupp", SortOrder(["ps_suppkey"]),
        included=["ps_partkey", "ps_availqty"])
    catalog.create_index(
        "li_suppkey_cov3", "lineitem", SortOrder(["l_suppkey"]),
        included=["l_partkey", "l_quantity", "l_linestatus"])


def query3() -> Query:
    """The paper's Query 3: parts whose open-order quantity exceeds stock."""
    return (Query.table("partsupp")
            .join("lineitem", on=[("ps_suppkey", "l_suppkey"),
                                  ("ps_partkey", "l_partkey")])
            .where(col("l_linestatus").eq("O"))
            .group_by(["ps_availqty", "ps_partkey", "ps_suppkey"],
                      agg_sum(col("l_quantity"), "sum_qty"))
            .having(col("sum_qty").gt(col("ps_availqty")))
            .select("ps_suppkey", "ps_partkey", "ps_availqty", "sum_qty")
            .order_by("ps_partkey"))
