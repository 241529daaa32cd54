"""Logical algebra, query builder, annotator, and FD tests."""

import pytest

from repro.core.sort_order import SortOrder
from repro.expr import col
from repro.expr.aggregates import agg_sum, count_star
from repro.logical import (
    Annotator,
    BaseRelation,
    FDSet,
    GroupBy,
    Join,
    OrderBy,
    Project,
    Query,
    Select,
    query_fds,
)
from repro.optimizer import Optimizer
from repro.storage import Catalog, Schema, TableStats


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.create_table("t", Schema.of(("a", "int", 8), ("b", "int", 8),
                                    ("c", "int", 8)),
                     stats=TableStats(1000, {"a": 10, "b": 100}),
                     clustering_order=SortOrder(["a"]), primary_key=["a", "b"])
    cat.create_table("u", Schema.of(("x", "int", 8), ("y", "int", 8)),
                     stats=TableStats(500, {"x": 10, "y": 50}))
    return cat


class TestBuilder:
    def test_chain_produces_expected_tree(self):
        q = (Query.table("t")
             .where(col("c").eq(1))
             .join("u", on=[("a", "x")])
             .group_by(["a"], count_star("n"))
             .order_by("a"))
        assert isinstance(q.expr, OrderBy)
        assert isinstance(q.expr.child, GroupBy)
        assert isinstance(q.expr.child.child, Join)
        assert isinstance(q.expr.child.child.left, Select)
        assert isinstance(q.expr.child.child.left.child, BaseRelation)

    def test_outer_joins(self):
        q = Query.table("t").full_outer_join("u", on=[("a", "x")])
        assert q.expr.join_type == "full"
        q2 = Query.table("t").left_outer_join("u", on=[("a", "x")])
        assert q2.expr.join_type == "left"

    def test_nodes_hashable(self):
        q1 = Query.table("t").where(col("a").eq(1)).expr
        q2 = Query.table("t").where(col("a").eq(1)).expr
        assert q1 == q2
        assert hash(q1) == hash(q2)
        assert len({q1, q2}) == 1

    def test_pretty(self):
        text = Query.table("t").join("u", on=[("a", "x")]).pretty()
        assert "Join" in text and "Relation(t)" in text

    def test_bad_source(self):
        with pytest.raises(TypeError):
            Query.table("t").join(42, on=[("a", "x")])


class TestAnnotator:
    def test_schemas(self, catalog):
        q = Query.table("t").join("u", on=[("a", "x")]).select("a", "y")
        ann = Annotator(catalog, q.expr)
        assert ann.schema_of(q.expr).names == ("a", "y")
        join_schema = ann.schema_of(q.expr.child)
        assert join_schema.names == ("a", "b", "c", "x", "y")

    def test_equivalences_from_joins(self, catalog):
        q = Query.table("t").join("u", on=[("a", "x")])
        ann = Annotator(catalog, q.expr)
        assert ann.eq.same("a", "x")
        assert not ann.eq.same("a", "y")

    def test_used_attrs(self, catalog):
        q = (Query.table("t").join("u", on=[("a", "x")])
             .where(col("c").eq(1)).select("a", "y"))
        ann = Annotator(catalog, q.expr)
        assert ann.used_attrs("t") == {"a", "c"}
        assert ann.used_attrs("u") == {"x", "y"}

    # Cardinalities are a property of plan nodes (PlanBuilder's rules).
    @staticmethod
    def planned(catalog, query, *ops):
        plan = Optimizer(catalog).optimize(query)
        return next(node for node in plan.walk() if node.op in ops)

    def test_join_cardinality(self, catalog):
        q = Query.table("t").join("u", on=[("a", "x")])
        join = self.planned(catalog, q, "MergeJoin", "HashJoin")
        # 1000 × 500 / max(10, 10)
        assert join.stats.N == pytest.approx(50_000)

    def test_groupby_cardinality(self, catalog):
        q = Query.table("t").group_by(["a"], count_star("n"))
        agg = self.planned(catalog, q, "SortAggregate", "HashAggregate")
        assert agg.stats.N == pytest.approx(10)

    def test_select_scaling(self, catalog):
        q = Query.table("t").where(col("a").eq(1))
        assert self.planned(catalog, q, "Filter").stats.N == pytest.approx(100)

    def test_limit_caps(self, catalog):
        q = Query.table("t").limit(7)
        assert self.planned(catalog, q, "Limit").stats.N == 7

    def test_outer_join_rows_at_least_input(self, catalog):
        q = Query.table("t").full_outer_join("u", on=[("b", "y")])
        join = self.planned(catalog, q, "MergeJoin", "HashJoin")
        assert join.stats.N >= 1000


class TestFDs:
    def test_closure(self):
        fds = FDSet()
        fds.add_key(["a"], ["a", "b", "c"])
        assert fds.closure({"a"}) == {"a", "b", "c"}
        assert fds.closure({"b"}) == {"b"}

    def test_transitive_closure(self):
        fds = FDSet()
        fds.add_key(["a"], ["a", "b"])
        fds.add_key(["b"], ["b", "c"])
        assert "c" in fds.closure({"a"})

    def test_equivalence(self):
        fds = FDSet()
        fds.add_equivalence("x", "y")
        assert fds.determines({"x"}, "y")
        assert fds.determines({"y"}, "x")

    def test_constants(self):
        fds = FDSet()
        fds.add_constant("status")
        assert fds.determines(set(), "status")
        assert fds.reduce_order(SortOrder(["status", "a"])) == SortOrder(["a"])

    def test_reduce_order(self):
        fds = FDSet()
        fds.add_key(["pk", "sk"], ["pk", "sk", "avail"])
        reduced = fds.reduce_order(SortOrder(["pk", "sk", "avail"]))
        assert reduced == SortOrder(["pk", "sk"])
        # Order of determinants matters: avail first cannot be dropped.
        kept = fds.reduce_order(SortOrder(["avail", "pk", "sk"]))
        assert kept == SortOrder(["avail", "pk", "sk"])

    def test_reduce_group_columns(self):
        fds = FDSet()
        fds.add_key(["pk", "sk"], ["pk", "sk", "avail"])
        reduced = fds.reduce_group_columns(["avail", "pk", "sk"])
        assert set(reduced) == {"pk", "sk"}

    def test_query_fds_from_predicate(self, catalog):
        q = (Query.table("t").join("u", on=[("a", "x")])
             .where(col("c").eq(5)))
        fds = query_fds(catalog, q.expr)
        assert fds.determines({"a"}, "x")       # join equivalence
        assert fds.determines(set(), "c")       # constant filter
        assert fds.determines({"a", "b"}, "c")  # primary key of t

    def test_outer_join_equalities_not_fds(self, catalog):
        """FULL OUTER join equalities do not hold on padded rows."""
        q = Query.table("t").full_outer_join("u", on=[("a", "x")])
        fds = query_fds(catalog, q.expr)
        assert not fds.determines({"a"}, "x")
