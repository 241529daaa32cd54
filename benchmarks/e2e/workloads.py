"""The four benchmark workloads.

Each workload stresses a different part of the optimizer -> engine ->
serving stack (see ``README.md`` for why each was chosen); all of them
generate their data from the seed, serve a fixed *round* of operations
with one closed-loop client, and verify every result against
:mod:`reference`.  Written against the public serving surface only
(:data:`surface.END_TO_END`).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Optional

import reference as ref
import surface

surface.ensure_repro_importable()

from repro.core.sort_order import SortOrder  # noqa: E402
from repro.expr import col, param  # noqa: E402
from repro.expr.aggregates import agg_sum, count_star  # noqa: E402
from repro.logical import Query  # noqa: E402
from repro.service import QueryServer, QuerySession  # noqa: E402
from repro.storage import Catalog, Schema, SystemParameters  # noqa: E402
import repro.workloads as paper  # noqa: E402


@dataclass(frozen=True)
class Op:
    """One operation of a round."""

    cls: str                       #: query class (latency is pooled, shares are per class)
    key: Any                       #: key of its reference answer
    query: Any
    catalog: Any = field(compare=False, default=None)
    binds: tuple = ()              #: ((name, value), ...)
    parallelism: int = 1
    session: tuple = ()            #: QuerySession options, ((name, value), ...)
    refresh: Optional[str] = None  #: table whose stats are refreshed before the op

    @property
    def label(self) -> str:
        opts = "".join(f" {k}={v}" for k, v in self.session)
        return f"{self.cls} p={self.parallelism}{opts}"


class Workload:
    """Set-up, one round of operations, execution and verification."""

    name = ""
    backend = "serial"
    parallelism = 1
    #: Rounds of the mix in the layer pass.
    layer_rounds = 2

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.catalog: Optional[Catalog] = None
        self.server: Optional[QueryServer] = None
        self.references: dict = {}

    # -- set-up (timed as setup_s) ---------------------------------------------------
    def build(self) -> None:
        """Generate the data from the seed and build the catalog(s)."""
        raise NotImplementedError

    def start(self) -> None:
        """Start what serves the operations (server, worker pool)."""
        self.server = self.make_server()

    def make_server(self, **extra: Any) -> QueryServer:
        kwargs: dict = {"backend": self.backend,
                        "parallelism": self.parallelism}
        if self.backend == "process":
            kwargs["pool_workers"] = min(2, os.cpu_count() or 1)
        kwargs.update(extra)
        return QueryServer(self.catalog, **kwargs)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # -- untimed ---------------------------------------------------------------------
    def compute_references(self) -> None:
        """Fill :attr:`references` from the catalog's rows (never from
        the engine)."""
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def cases(self) -> list[Op]:
        """The distinct plans of the workload: one op per (query,
        parallelism, session options)."""
        seen: dict = {}
        for op in self.round():
            seen.setdefault((op.cls, op.parallelism, op.session), op)
        return list(seen.values())

    # -- the timed call and its check --------------------------------------------------
    def before(self, op: Op) -> None:
        if op.refresh is not None:
            op.catalog.refresh_stats(op.refresh)

    def execute(self, op: Op, server: Optional[QueryServer] = None):
        """Submit -> rows in hand."""
        return (server or self.server).execute(
            op.query, **dict(op.binds)).rows

    def verify(self, op: Op, result) -> Optional[str]:
        """``None`` when *result* is right, else the reason."""
        expected = self.references.get(op.key)
        if expected is None:
            return f"no reference for {op.key!r}"
        return ref.check(expected, result)


class Verifier:
    """Checks results against the workload's references and counts:
    every check is one attempted operation, every mismatch one failed."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op: Op, result, where: str = "") -> None:
        """*result* is what the operation returned, or the exception it
        raised (rejected, timed out, failed): that is a failure too."""
        self.attempted += 1
        why = f"raised {result!r}" if isinstance(result, Exception) \
            else self.workload.verify(op, result)
        if why is not None:
            self.failures.append(f"{where}{op.label}: {why}")


# -- trading_serial ----------------------------------------------------------------------
class TradingSerial(Workload):
    """The paper's Experiment B3 workload in the paper's regime."""

    name = "trading_serial"
    ORDER_KEY = ("userid", "basketid", "parentorderid", "waveid",
                 "childorderid")
    MIN_QTY = 500

    def build(self) -> None:
        # 16 blocks of sort memory: Q5/Q6 plan as MergeJoin over
        # PartialSort (+ SortAggregate); with the default 10 000 blocks
        # they plan as hash join/aggregate and no enforcer runs at all.
        self.catalog = paper.trading_catalog(
            scale=0.004 if self.quick else 0.04, seed=self.seed,
            params=SystemParameters(block_size=4096, sort_memory_blocks=16))
        self.q5 = paper.query5()
        self.q6 = paper.query6()
        self.report = Query.table("tran").order_by(*self.ORDER_KEY)
        self.volume = (Query.table("tran")
                       .where(col("quantity").ge(param("min_qty")))
                       .group_by(["userid", "basketid"], count_star("n"),
                                 agg_sum(col("quantity"), "vol")))

    def round(self) -> list[Op]:
        cat = self.catalog
        q5 = Op("q5", "q5", self.q5, cat)
        q6 = Op("q6", "q6", self.q6, cat)
        report = Op("tran_report", "tran_report", self.report, cat)
        volume = Op("tran_volume", ("tran_volume", self.MIN_QTY), self.volume,
                    cat, binds=(("min_qty", self.MIN_QTY),))
        return [q5, q6, report, q6, q5, q6, report, volume]

    def compute_references(self) -> None:
        cat = self.catalog
        t1 = ref.where(ref.scan(cat, "tran_t1"), "t1_trantype",
                       lambda v: v == "New")
        t2 = ref.where(ref.scan(cat, "tran_t2"), "t2_trantype",
                       lambda v: v == "Executed")
        joined = ref.join(t1, t2, paper.Q5_JOIN)
        joined = ref.compute(joined, "ordervalue", lambda q, p: q * p,
                             ("t1_quantity", "t1_price"))
        joined = ref.compute(joined, "execvalue", lambda q, p: q * p,
                             ("t2_quantity", "t2_price"))
        # query5() groups in this column order.
        keys = ["t1_userid", "t1_basketid", "t1_parentorderid",
                "t1_waveid", "t1_childorderid"]
        self.references["q5"] = ref.Expected.of(ref.group_by(
            joined, keys, [("ordervalue", "min", "ordervalue"),
                           ("executedvalue", "sum", "execvalue")]))
        self.references["q6"] = ref.Expected.of(ref.join(
            ref.scan(cat, "basket"), ref.scan(cat, "analytics"),
            paper.Q6_JOIN))
        tran = ref.scan(cat, "tran")
        self.references["tran_report"] = ref.Expected.of(tran, self.ORDER_KEY)
        big = ref.where(tran, "quantity", lambda v: v >= self.MIN_QTY)
        self.references[("tran_volume", self.MIN_QTY)] = ref.Expected.of(
            ref.group_by(big, ["userid", "basketid"],
                         [("n", "count", None), ("vol", "sum", "quantity")]))


# -- report_process ----------------------------------------------------------------------
class ReportProcess(Workload):
    """Sort/aggregate operators behind pickle, pool dispatch, the
    stream router and the order-preserving merge."""

    name = "report_process"
    backend = "process"
    parallelism = 4
    ROWS = 40_000
    MIN_QTYS = (100, 250, 400)
    RECENT_TS = 90_000
    REPORT_ORDER = ("ts", "sym", "qty", "tag")
    RECENT_ORDER = ("ts", "sym", "qty")

    def build(self) -> None:
        rng = random.Random(self.seed)
        n = self.ROWS // 10 if self.quick else self.ROWS
        # rows // 100 blocks: the report sort spills at parallelism 1
        # and fits per shard.
        self.catalog = Catalog(SystemParameters(sort_memory_blocks=n // 100))
        schema = Schema.of(("sym", "int", 8), ("ts", "int", 8),
                           ("qty", "int", 8), ("tag", "str", 64))
        rows = [(rng.randrange(64), rng.randrange(100_000),
                 rng.randrange(1, 500), f"t{rng.randrange(997)}")
                for _ in range(n)]
        self.catalog.create_table("trades", schema, rows=rows,
                                  clustering_order=SortOrder(["sym"]))
        self.report = Query.table("trades").order_by(*self.REPORT_ORDER)
        self.volume = (Query.table("trades")
                       .where(col("qty").ge(param("min_qty")))
                       .group_by(["sym"], count_star("n"),
                                 agg_sum(col("qty"), "vol"))
                       .order_by("sym"))
        self.recent = (Query.table("trades")
                       .where(col("ts").ge(self.RECENT_TS))
                       .select(*self.RECENT_ORDER)
                       .order_by(*self.RECENT_ORDER))

    def round(self) -> list[Op]:
        cat, p = self.catalog, self.parallelism
        report = Op("report", "report", self.report, cat, parallelism=p)
        recent = Op("recent", "recent", self.recent, cat, parallelism=p)
        volume = [Op("volume", ("volume", q), self.volume, cat,
                     binds=(("min_qty", q),), parallelism=p)
                  for q in self.MIN_QTYS]
        return [report, volume[0], recent, volume[1], report, recent,
                volume[2], recent]

    def compute_references(self) -> None:
        trades = ref.scan(self.catalog, "trades")
        self.references["report"] = ref.Expected.of(trades, self.REPORT_ORDER)
        for q in self.MIN_QTYS:
            big = ref.where(trades, "qty", lambda v: v >= q)
            self.references[("volume", q)] = ref.Expected.of(
                ref.group_by(big, ["sym"], [("n", "count", None),
                                            ("vol", "sum", "qty")]),
                ("sym",))
        late = ref.where(trades, "ts", lambda v: v >= self.RECENT_TS)
        self.references["recent"] = ref.Expected.of(
            ref.project(late, self.RECENT_ORDER), self.RECENT_ORDER)


# -- short_churn -------------------------------------------------------------------------
class ShortChurn(Workload):
    """Short parameterized reads beside statistics refreshes: cache-hit
    serving next to invalidation, cold re-prepare and kernel re-attach."""

    name = "short_churn"
    ROWS = 600
    KEYS, GROUPS = 60, 12
    RANGE_LOWS = (900, 925, 950, 975)
    #: A block holds every shape PER_SHAPE times in seeded order and
    #: starts with ``refresh_stats("hot")``: exactly the four shapes that
    #: read ``hot`` re-prepare once per block, whatever the seed.
    PER_SHAPE = 9
    BLOCKS = 16

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.catalog = Catalog(SystemParameters())
        for name in ("hot", "cold"):
            schema = Schema.of((f"{name}_k", "int", 8), (f"{name}_g", "int", 8),
                               (f"{name}_v", "int", 8), (f"{name}_s", "str", 16))
            rows = [(i % self.KEYS, rng.randrange(self.GROUPS),
                     rng.randrange(1000), f"s{rng.randrange(50)}")
                    for i in range(self.ROWS)]
            self.catalog.create_table(
                name, schema, rows=rows,
                clustering_order=SortOrder([f"{name}_k"]))
        self.shapes: dict = {}
        for t in ("hot", "cold"):
            k, g, v, s = (f"{t}_{c}" for c in "kgvs")
            self.shapes[f"{t}_point"] = (
                Query.table(t).where(col(k).eq(param("k"))).order_by(v, s))
            self.shapes[f"{t}_agg"] = (
                Query.table(t).where(col(g).eq(param("g")))
                .group_by([k], count_star("n"), agg_sum(col(v), "tot")))
            self.shapes[f"{t}_range"] = (
                Query.table(t).where(col(v).ge(param("lo")))
                .select(k, v).order_by(k, v))
        self.shapes["join"] = (
            Query.table("hot").where(col("hot_g").eq(param("g")))
            .join(Query.table("cold").where(col("cold_g").eq(param("g2"))),
                  on=[("hot_k", "cold_k")])
            .group_by(["hot_k"], count_star("n")))
        self._round = self._make_round(rng)

    def _draw_binds(self, shape: str, rng: random.Random) -> tuple:
        if shape.endswith("_point"):
            return (("k", rng.randrange(self.KEYS)),)
        if shape.endswith("_agg"):
            return (("g", rng.randrange(self.GROUPS)),)
        if shape.endswith("_range"):
            return (("lo", rng.choice(self.RANGE_LOWS)),)
        return (("g", rng.randrange(self.GROUPS)),
                ("g2", rng.randrange(self.GROUPS)))

    def _make_round(self, rng: random.Random) -> list[Op]:
        blocks = max(1, self.BLOCKS // 20) if self.quick else self.BLOCKS
        ops = []
        for _ in range(blocks):
            block = [shape for shape in self.shapes
                     for _ in range(self.PER_SHAPE)]
            rng.shuffle(block)
            for i, shape in enumerate(block):
                binds = self._draw_binds(shape, rng)
                ops.append(Op(shape, (shape, binds), self.shapes[shape],
                              self.catalog, binds=binds,
                              refresh="hot" if i == 0 else None))
        return ops

    def round(self) -> list[Op]:
        return self._round

    def cases(self) -> list[Op]:
        return [Op(shape, None, query, self.catalog)
                for shape, query in self.shapes.items()]

    def compute_references(self) -> None:
        rels = {t: ref.scan(self.catalog, t) for t in ("hot", "cold")}
        for t, rel in rels.items():
            k, g, v, s = (f"{t}_{c}" for c in "kgvs")
            for key in range(self.KEYS):
                hit = ref.where(rel, k, lambda x: x == key)
                self.references[(f"{t}_point", (("k", key),))] = \
                    ref.Expected.of(hit, (v, s))
            for group in range(self.GROUPS):
                hit = ref.where(rel, g, lambda x: x == group)
                self.references[(f"{t}_agg", (("g", group),))] = \
                    ref.Expected.of(ref.group_by(
                        hit, [k], [("n", "count", None), ("tot", "sum", v)]))
            for lo in self.RANGE_LOWS:
                hit = ref.project(ref.where(rel, v, lambda x: x >= lo), (k, v))
                self.references[(f"{t}_range", (("lo", lo),))] = \
                    ref.Expected.of(hit, (k, v))
        for g in range(self.GROUPS):
            left = ref.where(rels["hot"], "hot_g", lambda x: x == g)
            for g2 in range(self.GROUPS):
                right = ref.where(rels["cold"], "cold_g", lambda x: x == g2)
                joined = ref.join(left, right, [("hot_k", "cold_k")])
                self.references[("join", (("g", g), ("g2", g2)))] = \
                    ref.Expected.of(ref.group_by(joined, ["hot_k"],
                                                 [("n", "count", None)]))


# -- plan_cold ---------------------------------------------------------------------------
class PlanCold(Workload):
    """Planning only: every operation is a cold ``prepare()`` on an
    empty cache, over the paper's Fig. 16 queries and the many-join
    query x parallelism x enumerator x strategy."""

    name = "plan_cold"
    ENUMERATORS = ("exhaustive", "simpli-squared", "greedy-m2m")

    def build(self) -> None:
        cat3 = paper.tpch_stats_catalog()
        paper.add_query3_indexes(cat3)
        q3 = (Query.table("partsupp")
              .join("lineitem", on=[("ps_suppkey", "l_suppkey"),
                                    ("ps_partkey", "l_partkey")])
              .where(col("l_linestatus").eq("O"))
              .group_by(["ps_availqty", "ps_partkey", "ps_suppkey"],
                        agg_sum(col("l_quantity"), "sum_qty"))
              .having(col("sum_qty").gt(col("ps_availqty")))
              .select("ps_suppkey", "ps_partkey", "ps_availqty", "sum_qty")
              .order_by("ps_partkey"))
        r_cols = [f"r{t}_c{c}" for t in (1, 2, 3) for c in range(1, 6)]
        many_cols = [f"{t}_{c}" for t in ("l0", "l1", "l2", "l3",
                                          "r0", "r1", "r2", "r3")
                     for c in "abcdev"]
        basket = ["b_prodtype", "b_symbol", "b_exchange", "b_qty", "b_note"]
        analytics = ["a_prodtype", "a_symbol", "a_exchange", "a_beta", "a_vol"]
        trading = paper.trading_stats_catalog()
        #: name -> (catalog, query, strategies, output columns,
        #:          required order, tables read)
        self.queries = {
            "q3": (cat3, q3, ("pyro-o",),
                   ["ps_suppkey", "ps_partkey", "ps_availqty", "sum_qty"],
                   ["ps_partkey"], {"partsupp", "lineitem"}),
            "q4": (paper.r_tables_stats_catalog(
                       params=SystemParameters(sort_memory_blocks=250)),
                   paper.query4(), ("pyro-o",), r_cols, [],
                   {"r1", "r2", "r3"}),
            "q5": (trading, paper.query5(), ("pyro-o",),
                   ["t1_userid", "t1_basketid", "t1_parentorderid",
                    "t1_waveid", "t1_childorderid", "ordervalue",
                    "executedvalue"], [], {"tran_t1", "tran_t2"}),
            "q6": (trading, paper.query6(), ("pyro-o",),
                   basket + analytics, [], {"basket", "analytics"}),
            "many_join": (paper.many_join_catalog(self.seed),
                          paper.many_join_query(), ("pyro-o", "pyro-e"),
                          many_cols, ["l0_v"],
                          {"l0", "l1", "l2", "l3", "r0", "r1", "r2", "r3"}),
        }
        # The catalog the storage probes look at.
        self.catalog = self.queries["many_join"][0]
        self._round = [
            Op(name, name, query, catalog, parallelism=p,
               session=(("join_enumerator", enum), ("strategy", strategy)))
            for name, (catalog, query, strategies, *_) in self.queries.items()
            for p in (1, 4)
            for enum in self.ENUMERATORS
            for strategy in strategies]

    def start(self) -> None:
        """Nothing serves: every operation builds its own session."""

    def compute_references(self) -> None:
        """The reference of a plan is structural (see :meth:`verify`)."""

    def round(self) -> list[Op]:
        return self._round

    def execute(self, op: Op, server=None):
        session = QuerySession(op.catalog, **dict(op.session))
        return session.prepare(op.query, parallelism=op.parallelism)

    def verify(self, op: Op, prepared) -> Optional[str]:
        """A plan cannot be checked against rows (the paper-scale
        catalogs hold statistics only), so it is checked against what
        the query text fixes whatever the join order or enforcer
        placement: not served from a cache, a finite positive cost, the
        output columns in order, the required order, and exactly the
        query's tables at the leaves."""
        _, _, _, columns, order, tables = self.queries[op.key]
        if prepared.from_cache:
            return "served from a plan cache; expected a cold prepare"
        cost = prepared.total_cost
        if not (math.isfinite(cost) and cost > 0):
            return f"plan cost {cost!r}"
        plan = prepared.plan
        if list(plan.schema.names) != columns:
            return f"output columns {list(plan.schema.names)}"
        if list(plan.order)[:len(order)] != order:
            return f"plan order {plan.order} does not give {order}"
        leaves = {node.arg("table") for node in plan.walk()
                  if not node.children}
        if leaves != tables:
            return f"plan reads {sorted(map(str, leaves))}"
        return None


WORKLOADS = {w.name: w for w in (TradingSerial, PlanCold, ReportProcess,
                                 ShortChurn)}
