"""Favorable-order (afm) computation tests, per Section 5.1.2's rules."""

import pytest

from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.expr import col
from repro.expr.aggregates import count_star
from repro.logical import Query
from repro.optimizer import Optimizer
from repro.optimizer.manual import PlanBuilder
from repro.optimizer.pipeline.groups import GroupTable
from repro.storage import Catalog, Schema, TableStats
from tests.paper_oracles import benefit, ford_min


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.create_table(
        "r", Schema.of(("r_a", "int", 8), ("r_b", "int", 8), ("r_c", "int", 8)),
        stats=TableStats(100_000, {"r_a": 50, "r_b": 1000}),
        clustering_order=SortOrder(["r_a"]))
    cat.create_index("r_bc", "r", SortOrder(["r_b", "r_c"]), included=["r_a"])
    cat.create_table(
        "s", Schema.of(("s_a", "int", 8), ("s_b", "int", 8), ("s_d", "int", 8)),
        stats=TableStats(50_000, {"s_a": 50, "s_b": 1000}),
        clustering_order=SortOrder(["s_b"]))
    return cat


def favorable_for(catalog, query):
    return GroupTable(catalog, query.expr).favorable


class TestBaseRelation:
    def test_clustering_and_covering_index(self, catalog):
        q = Query.table("r")
        fav = favorable_for(catalog, q)
        afm = fav.afm(q.expr)
        assert SortOrder(["r_a"]) in afm            # clustering order
        assert SortOrder(["r_b", "r_c"]) in afm     # covering index key

    def test_non_covering_index_excluded(self, catalog):
        # Make the index non-covering by referencing a column it lacks…
        # r_bc includes all three columns, so build a query on a table
        # where the index misses a used column.
        cat = Catalog()
        cat.create_table("t", Schema.of("a", "b", "c"),
                         stats=TableStats(1000, {}))
        cat.create_index("t_a", "t", SortOrder(["a"]))  # covers only {a}
        q = Query.table("t").select("a", "b")
        fav = favorable_for(cat, q)
        assert SortOrder(["a"]) not in fav.afm(q.expr.child)

    def test_no_orders_for_heap_table(self):
        cat = Catalog()
        cat.create_table("h", Schema.of("a"), stats=TableStats(10, {}))
        q = Query.table("h")
        fav = favorable_for(cat, q)
        assert fav.afm(q.expr) == ()


class TestSelectProject:
    def test_select_passthrough(self, catalog):
        q = Query.table("r").where(col("r_a").eq(1))
        fav = favorable_for(catalog, q)
        assert fav.afm(q.expr) == fav.afm(q.expr.children[0])

    def test_project_prefix(self, catalog):
        q = Query.table("r").select("r_b", "r_a")
        fav = favorable_for(catalog, q)
        afm = fav.afm(q.expr)
        # (r_b, r_c) truncates to (r_b); (r_a) survives.
        assert SortOrder(["r_a"]) in afm
        assert SortOrder(["r_b"]) in afm
        assert SortOrder(["r_b", "r_c"]) not in afm


class TestJoin:
    def test_join_extends_prefixes_over_attrs(self, catalog):
        q = Query.table("r").join("s", on=[("r_a", "s_a"), ("r_b", "s_b")])
        fav = favorable_for(catalog, q)
        afm = fav.afm(q.expr)
        # clustering (r_a) → (r_a, r_b); s clustering (s_b) → (s_b ~ r_b, r_a)
        assert any(o == ("r_a", "r_b") for o in afm)
        assert any(o[0] in ("s_b", "r_b") and len(o) >= 2 for o in afm)

    def test_join_keeps_input_orders(self, catalog):
        q = Query.table("r").join("s", on=[("r_a", "s_a")])
        fav = favorable_for(catalog, q)
        afm = fav.afm(q.expr)
        assert SortOrder(["r_a"]) in afm           # NL join propagates outer
        assert SortOrder(["r_b", "r_c"]) in afm

    def test_afm_on_restriction(self, catalog):
        q = Query.table("r").join("s", on=[("r_a", "s_a"), ("r_b", "s_b")])
        fav = favorable_for(catalog, q)
        restricted = fav.afm_on(q.expr.left, {"r_a", "r_b", "s_a", "s_b"})
        assert SortOrder(["r_a"]) in restricted
        for o in restricted:
            assert o.attrs() <= {"r_a", "r_b"}


class TestGroupBy:
    def test_group_extends_over_group_columns(self, catalog):
        q = Query.table("r").group_by(["r_b", "r_a"], count_star("n"))
        fav = favorable_for(catalog, q)
        afm = fav.afm(q.expr)
        # Clustering (r_a) prefix extended over {r_a, r_b}.
        assert any(o == ("r_a", "r_b") for o in afm)
        # Arbitrary permutation from the ε seed also present.
        assert all(o.attrs() <= {"r_a", "r_b"} for o in afm)


class TestMemoisationAndCaps:
    def test_memoised(self, catalog):
        q = Query.table("r")
        fav = favorable_for(catalog, q)
        assert fav.afm(q.expr) is fav.afm(q.expr)

    def test_dedupe(self, catalog):
        q = Query.table("r").where(col("r_a").eq(1)).where(col("r_b").eq(2))
        fav = favorable_for(catalog, q)
        afm = fav.afm(q.expr)
        assert len(afm) == len(set(afm))


class TestFordMin:
    def test_prefix_pruning(self):
        # cbp values: obtaining (a) costs 10; (a,b) costs 10 + enforcement 5.
        orders = {SortOrder(["a"]): 10.0, SortOrder(["a", "b"]): 15.0}
        kept = ford_min(orders, coe_from=lambda o1, o2: 5.0)
        assert kept == {SortOrder(["a"])}

    def test_subsuming_order_pruned_at_equal_cost(self):
        # (a,b) costs the same as (a): keep the longer one only.
        orders = {SortOrder(["a"]): 10.0, SortOrder(["a", "b"]): 10.0}
        kept = ford_min(orders, coe_from=lambda o1, o2: 100.0)
        assert kept == {SortOrder(["a", "b"])}

    def test_independent_orders_kept(self):
        orders = {SortOrder(["a"]): 10.0, SortOrder(["b"]): 12.0}
        kept = ford_min(orders, coe_from=lambda o1, o2: 1.0)
        assert kept == set(orders)


class TestBenefit:
    def test_base_relation_benefit(self, catalog):
        """Definition 5.1 over the optimizer's ``cbp`` and a full sort's
        ``coe``.  Rule 1 puts both orders an access path delivers in
        ``afm``, a superset of ``ford``: the clustering order's benefit is
        the whole sort it saves, the covering index key's is zero here
        (reading the index costs more than scanning and sorting the
        table), and an order no access path delivers has none."""
        optimizer = Optimizer(catalog, strategy="pyro-o")
        builder = PlanBuilder(catalog)
        scan = builder.table_scan("r")
        expr = Query.table("r").expr

        def cbp(e, order):
            return optimizer.cost_of(e, order)

        def coe(e, o1, o2):
            assert not o1
            return builder.sort(scan, o2, full=True).self_cost

        clustering, key = SortOrder(["r_a"]), SortOrder(["r_b", "r_c"])
        assert set(favorable_for(catalog, Query.table("r")).afm(expr)) == {
            clustering, key}
        saved = coe(expr, EMPTY_ORDER, clustering)
        assert saved > 0
        assert benefit(clustering, expr, cbp, coe) == pytest.approx(saved)
        for order in (key, SortOrder(["r_c"])):
            assert benefit(order, expr, cbp, coe) == pytest.approx(0.0)
