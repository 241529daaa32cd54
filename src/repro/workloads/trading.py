"""Trading workload for Queries 5 and 6 (Experiment B3).

* **Query 5** — total executed value per order: a five-attribute
  self-join of a transactions table (``TRAN T1 ⋈ TRAN T2``) followed by
  a GROUP BY on the same five attributes.  Self-joins are expressed via
  catalog aliases ``tran_t1`` / ``tran_t2`` (column prefixes ``t1_`` /
  ``t2_``).

* **Query 6** — basket analytics: a three-attribute join
  ``BASKET ⋈ ANALYTICS``.

The paper does not publish these tables' sizes; we pick sizes that put
the sorts firmly in external territory at paper scale and give the
tables clustering/covering orders that *partially* match the join
attributes — the situation PYRO-O exploits and PYRO-P's arbitrary
secondary orders miss (Figure 15's Q5/Q6 bars).
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.sort_order import SortOrder
from ..expr import col
from ..expr.aggregates import agg_min, agg_sum
from ..logical import Query
from ..storage import Catalog, Schema, SystemParameters, TableStats

TRAN_SCHEMA = Schema.of(
    ("userid", "int", 8),
    ("basketid", "int", 8),
    ("parentorderid", "int", 8),
    ("waveid", "int", 8),
    ("childorderid", "int", 8),
    ("quantity", "int", 8),
    ("price", "num", 8),
    ("trantype", "str", 10),
)

BASKET_SCHEMA = Schema.of(
    ("b_prodtype", "str", 10),
    ("b_symbol", "str", 12),
    ("b_exchange", "str", 8),
    ("b_qty", "int", 8),
    ("b_note", "str", 40),
)

ANALYTICS_SCHEMA = Schema.of(
    ("a_prodtype", "str", 10),
    ("a_symbol", "str", 12),
    ("a_exchange", "str", 8),
    ("a_beta", "num", 8),
    ("a_vol", "num", 8),
)

#: Query 5's join attribute pairs (t1 side first).
Q5_JOIN = [("t1_userid", "t2_userid"), ("t1_parentorderid", "t2_parentorderid"),
           ("t1_basketid", "t2_basketid"), ("t1_waveid", "t2_waveid"),
           ("t1_childorderid", "t2_childorderid")]

#: Query 6's join attribute pairs.
Q6_JOIN = [("b_prodtype", "a_prodtype"), ("b_symbol", "a_symbol"),
           ("b_exchange", "a_exchange")]


ORDER_KEY = ("userid", "basketid", "parentorderid", "waveid", "childorderid")


def _tran_distinct(num_rows: int) -> dict[str, int]:
    """Value distributions for TRAN.

    ``userid``/``basketid`` are deliberately low-cardinality (trading
    desks, program baskets) so that partial-sort segments after a one- or
    two-attribute prefix still exceed sort memory: only an interesting
    order matching the clustering prefix *deeply* avoids external sort
    I/O, which is what separates PYRO-O from PYRO-P's arbitrary
    secondary orders in Figure 15.
    """
    return {
        "userid": max(2, num_rows // 1_250_000),
        "basketid": max(2, num_rows // 850_000),
        "parentorderid": max(2, num_rows // 20),
        "waveid": max(2, num_rows // 10),
        "childorderid": max(2, num_rows // 4),
        "quantity": 1000,
        "price": 10_000,
        "trantype": 3,
    }


def _tran_group_distinct(num_rows: int) -> dict[frozenset, int]:
    # Several transaction rows (New/Executed/...) share one logical order.
    return {frozenset(ORDER_KEY): max(2, num_rows // 3)}


def _register_tran_aliases(catalog: Catalog) -> None:
    catalog.alias_table("tran", "tran_t1", "t1_")
    catalog.alias_table("tran", "tran_t2", "t2_")
    # The clustering order carries over to the aliases; the covering
    # index must be re-registered per alias.
    for prefix, alias in (("t1_", "tran_t1"), ("t2_", "tran_t2")):
        catalog.create_index(
            f"{alias}_cov", alias,
            SortOrder([f"{prefix}userid", f"{prefix}basketid",
                       f"{prefix}parentorderid"]),
            included=[f"{prefix}waveid", f"{prefix}childorderid",
                      f"{prefix}quantity", f"{prefix}price",
                      f"{prefix}trantype"])


def trading_stats_catalog(params: Optional[SystemParameters] = None,
                          tran_rows: int = 10_000_000,
                          basket_rows: int = 5_000_000,
                          analytics_rows: int = 2_000_000) -> Catalog:
    """Paper-scale stats-only trading catalog.

    Sizes are chosen so that full sorts of the join inputs exceed
    sort memory (going external) while deep partial-sort segments fit —
    the regime in which the choice of interesting order matters, as in
    the paper's TPC-H setup.  The default system parameters use 2 MB of
    sort memory (500 blocks) to keep that regime at these table sizes.
    """
    catalog = Catalog(params or SystemParameters(sort_memory_blocks=500))
    catalog.create_table(
        "tran", TRAN_SCHEMA,
        stats=TableStats(tran_rows, _tran_distinct(tran_rows),
                         group_distinct=_tran_group_distinct(tran_rows)),
        clustering_order=SortOrder(["userid", "basketid", "parentorderid"]))
    _register_tran_aliases(catalog)

    catalog.create_table(
        "basket", BASKET_SCHEMA,
        stats=TableStats(basket_rows, {
            "b_prodtype": 6, "b_symbol": 5_000, "b_exchange": 20,
            "b_qty": 1_000}),
        clustering_order=SortOrder(["b_prodtype", "b_symbol", "b_exchange"]))
    catalog.create_table(
        "analytics", ANALYTICS_SCHEMA,
        stats=TableStats(analytics_rows, {
            "a_prodtype": 6, "a_symbol": 5_000, "a_exchange": 20}),
        clustering_order=SortOrder(["a_symbol"]))
    catalog.create_index(
        "analytics_cov", "analytics",
        SortOrder(["a_prodtype", "a_symbol"]),
        included=["a_exchange", "a_beta", "a_vol"])
    return catalog


def trading_catalog(scale: float = 0.02, seed: int = 31,
                    params: Optional[SystemParameters] = None) -> Catalog:
    """Materialised scaled-down trading catalog."""
    rng = random.Random(seed)
    catalog = Catalog(params or SystemParameters())
    tran_rows_n = max(2_000, int(1_000_000 * scale))
    d = _tran_distinct(tran_rows_n)

    # Generate per logical order: each (u, b, p, w, c) key gets a "New"
    # row plus one or more "Executed"/"Cancelled" rows, so the Query 5
    # self-join actually matches (as in a real trading system).
    tran_rows = []
    while len(tran_rows) < tran_rows_n:
        order = (rng.randrange(d["userid"]), rng.randrange(d["basketid"]),
                 rng.randrange(d["parentorderid"]), rng.randrange(d["waveid"]),
                 rng.randrange(d["childorderid"]))
        tran_rows.append(order + (rng.randrange(1, 1000),
                                  round(rng.uniform(1, 500), 2), "New"))
        for _ in range(rng.randrange(1, 3)):
            tran_rows.append(order + (rng.randrange(1, 1000),
                                      round(rng.uniform(1, 500), 2),
                                      rng.choice(["Executed", "Cancelled"])))
    del tran_rows[tran_rows_n:]
    tran = catalog.create_table(
        "tran", TRAN_SCHEMA, rows=tran_rows,
        clustering_order=SortOrder(["userid", "basketid", "parentorderid"]))
    tran.stats.group_distinct[frozenset(ORDER_KEY)] = len(
        {r[:5] for r in tran_rows})
    _register_tran_aliases(catalog)

    basket_n = max(1_000, int(500_000 * scale))
    symbols = [f"SYM{i:04d}" for i in range(min(5_000, basket_n // 4 + 1))]
    prodtypes = [f"PT{i}" for i in range(6)]
    exchanges = [f"EX{i}" for i in range(20)]
    basket_rows = [(rng.choice(prodtypes), rng.choice(symbols),
                    rng.choice(exchanges), rng.randrange(1, 100), "n" * 4)
                   for _ in range(basket_n)]
    catalog.create_table(
        "basket", BASKET_SCHEMA, rows=basket_rows,
        clustering_order=SortOrder(["b_prodtype", "b_symbol", "b_exchange"]))

    analytics_n = max(500, int(200_000 * scale))
    analytics_rows = [(rng.choice(prodtypes), rng.choice(symbols),
                       rng.choice(exchanges), round(rng.uniform(0, 2), 3),
                       round(rng.uniform(0, 1), 3))
                      for _ in range(analytics_n)]
    catalog.create_table("analytics", ANALYTICS_SCHEMA, rows=analytics_rows,
                         clustering_order=SortOrder(["a_symbol"]))
    catalog.create_index(
        "analytics_cov", "analytics",
        SortOrder(["a_prodtype", "a_symbol"]),
        included=["a_exchange", "a_beta", "a_vol"])
    return catalog


def query5() -> Query:
    """Total value executed for a given order (paper Query 5).

    ``OrderValue`` (T1.Quantity * T1.Price) is constant within a group —
    all five group keys identify the T1 row — so it is carried through
    the aggregation with ``min``.
    """
    t1 = Query.table("tran_t1").where(col("t1_trantype").eq("New"))
    t2 = Query.table("tran_t2").where(col("t2_trantype").eq("Executed"))
    return (t1.join(t2, on=Q5_JOIN)
            .compute(ordervalue=col("t1_quantity") * col("t1_price"),
                     execvalue=col("t2_quantity") * col("t2_price"))
            .group_by(["t1_userid", "t1_basketid", "t1_parentorderid",
                       "t1_waveid", "t1_childorderid"],
                      agg_min(col("ordervalue"), "ordervalue"),
                      agg_sum(col("execvalue"), "executedvalue")))


def query6() -> Query:
    """Basket analytics (paper Query 6): three-attribute join."""
    return Query.table("basket").join("analytics", on=Q6_JOIN)
