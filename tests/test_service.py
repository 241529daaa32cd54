"""Serving layer: fingerprints, plan cache, sessions, parameter binding."""

import pytest

from repro.core.sort_order import SortOrder
from repro.expr import col, param
from repro.logical import Query, canonical_text, logical_fingerprint
from repro.optimizer import Optimizer
from repro.service import PlanCache, PreparedQuery, QuerySession
from repro.storage import Catalog, Schema, TableStats


# -- fingerprints ------------------------------------------------------------------------
class TestFingerprint:
    def q(self, threshold=3):
        return (Query.table("left")
                .where(col("a").lt(threshold))
                .select("a", "b")
                .order_by("a"))

    def test_structurally_identical_queries_share_fingerprint(self):
        assert logical_fingerprint(self.q().expr) == \
            logical_fingerprint(self.q().expr)

    def test_different_constant_changes_fingerprint(self):
        assert logical_fingerprint(self.q(3).expr) != \
            logical_fingerprint(self.q(4).expr)

    def test_required_order_is_part_of_the_key(self):
        e = Query.table("left").expr
        assert logical_fingerprint(e, SortOrder(["a"])) != \
            logical_fingerprint(e, SortOrder(["b"]))

    def test_parameterized_queries_share_fingerprint(self):
        def q():
            return Query.table("left").where(col("a").eq(param("pa"))).expr
        assert logical_fingerprint(q()) == logical_fingerprint(q())
        assert "param:pa" in canonical_text(q())

    def test_type_tagging_prevents_const_col_collisions(self):
        a = Query.table("t").where(col("x").eq("y")).expr
        b = Query.table("t").where(col("x").eq(col("y"))).expr
        assert logical_fingerprint(a) != logical_fingerprint(b)


# -- the cache itself --------------------------------------------------------------------
class TestPlanCache:
    def test_hit_miss_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get("k", stats_version=1) is None
        cache.put("k", "plan", stats_version=1)
        assert cache.get("k", stats_version=1) == "plan"
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_stats_version_invalidates(self):
        cache = PlanCache(capacity=4)
        cache.put("k", "plan", stats_version=1)
        assert cache.get("k", stats_version=2) is None
        assert cache.stats.invalidations == 1
        assert "k" not in cache

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1, 0)
        cache.put("b", 2, 0)
        cache.get("a", 0)  # refresh a
        cache.put("c", 3, 0)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_invalidate_all(self):
        cache = PlanCache(capacity=4)
        cache.put("a", 1, 0)
        cache.put("b", 2, 0)
        assert cache.invalidate_all() == 2
        assert len(cache) == 0


# -- the session -------------------------------------------------------------------------
class TestQuerySession:
    def query(self):
        return (Query.table("left")
                .join("right", on=[("a", "c"), ("b", "d")])
                .select("a", "b", "x", "y")
                .order_by("a", "b"))

    def test_second_execute_hits_cache(self, small_catalog):
        session = QuerySession(small_catalog)
        first = session.execute(self.query())
        assert session.metrics.optimizations == 1
        assert session.cache.stats.hits == 0
        second = session.execute(self.query())
        assert second == first
        # The observable part of the acceptance criterion: optimization
        # skipped, served from the plan cache.
        assert session.metrics.optimizations == 1
        assert session.cache.stats.hits == 1

    def test_cached_plan_identical_to_uncached(self, small_catalog):
        session = QuerySession(small_catalog)
        cached = session.prepare(self.query())
        again = session.prepare(self.query())
        assert again.from_cache and not cached.from_cache
        direct = Optimizer(small_catalog).optimize(self.query())
        assert again.plan.signature() == direct.signature()
        assert again.total_cost == pytest.approx(direct.total_cost)

    def test_stats_refresh_invalidates(self, small_catalog):
        session = QuerySession(small_catalog)
        session.execute(self.query())
        small_catalog.refresh_stats("left")
        session.execute(self.query())
        assert session.cache.stats.invalidations == 1
        assert session.metrics.optimizations == 2

    def test_new_index_invalidates(self, small_catalog):
        session = QuerySession(small_catalog)
        session.prepare(self.query())
        small_catalog.create_index("right_cd", "right",
                                   SortOrder(["c", "d"]), included=["y"])
        prepared = session.prepare(self.query())
        assert not prepared.from_cache
        assert session.cache.stats.invalidations == 1

    def test_parameterized_execution(self, small_catalog):
        template = (Query.table("left")
                    .where(col("a").eq(param("pa")))
                    .select("a", "b", "x")
                    .order_by("b"))
        session = QuerySession(small_catalog)
        prepared = session.prepare(template)
        assert prepared.param_names == frozenset({"pa"})
        rows = small_catalog.table("left").rows
        for value in (3, 7):
            got = prepared.execute(pa=value)
            expected = sorted(((r[0], r[1], r[2]) for r in rows
                               if r[0] == value), key=lambda r: r[1])
            assert sorted(got) == sorted(expected)
            assert [r[1] for r in got] == sorted(r[1] for r in got)
        # Same template re-prepared: served from cache for any binding.
        assert session.prepare(template).from_cache
        assert session.metrics.optimizations == 1

    def test_cold_prepare_walks_the_plan_for_parameters_once(
            self, small_catalog, monkeypatch):
        """Stage 4's names go into the cache entry the miss path builds;
        a cache hit reads them there and walks no plan at all."""
        from repro.optimizer import volcano
        from repro.optimizer.pipeline import plan_params
        from repro.optimizer.plans import PhysicalPlan
        walks = []
        def counting(plan):
            walks.append(plan)
            return plan_params(plan)
        monkeypatch.setattr(volcano, "plan_params", counting)
        template = (Query.table("left")
                    .join("right", on=[("a", "c"), ("b", "d")])
                    .where(col("x").lt(param("hi")))
                    .where(col("y").gt(param("lo")))
                    .order_by("a", "b"))
        session = QuerySession(small_catalog)
        cold = session.prepare(template)
        assert not cold.from_cache and len(walks) == 1
        walk = PhysicalPlan.walk
        def counting_walk(node):
            walks.append(node)
            return walk(node)
        monkeypatch.setattr(PhysicalPlan, "walk", counting_walk)
        warm = session.prepare(template)
        monkeypatch.setattr(PhysicalPlan, "walk", walk)
        assert warm.from_cache and len(walks) == 1
        assert cold.param_names == warm.param_names == {"hi", "lo"}
        assert cold.param_names == plan_params(cold.plan)

    def test_missing_binding_raises(self, small_catalog):
        template = Query.table("left").where(col("a").eq(param("pa")))
        prepared = QuerySession(small_catalog).prepare(template)
        with pytest.raises(KeyError, match="pa"):
            prepared.execute()
        with pytest.raises(KeyError, match="bogus"):
            prepared.execute(pa=1, bogus=2)

    def test_stats_only_catalog_can_prepare(self):
        cat = Catalog()
        cat.create_table(
            "r", Schema.of(("a", "int", 8), ("b", "int", 8)),
            stats=TableStats(1_000_000, {"a": 100, "b": 10_000}),
            clustering_order=SortOrder(["a"]))
        session = QuerySession(cat)
        cost = session.cost_of(Query.table("r").order_by("a", "b"))
        assert cost > 0
        assert session.cost_of(Query.table("r").order_by("a", "b")) == cost
        assert session.cache.stats.hits == 1

    def test_explain_and_invalidate_plans(self, small_catalog):
        session = QuerySession(small_catalog)
        text = session.explain(self.query())
        assert "cost=" in text
        assert session.invalidate_plans() == 1
        assert not session.prepare(self.query()).from_cache


# -- stats versioning ------------------------------------------------------------------
class TestStatsVersioning:
    def test_table_setter_bumps_version(self):
        cat = Catalog()
        table = cat.create_table(
            "t", Schema.of(("a", "int", 8)), stats=TableStats(10, {"a": 5}))
        v0 = cat.stats_version
        table.stats = TableStats(20, {"a": 10})
        assert table.stats_version == 1
        assert cat.stats_version == v0 + 1

    def test_update_stats_remeasures_rows(self):
        cat = Catalog()
        table = cat.create_table(
            "t", Schema.of(("a", "int", 8)), rows=[(1,), (2,), (2,)])
        table.rows.append((9,))
        measured = cat.refresh_stats("t")
        assert measured.num_rows == 4
        assert measured.distinct_of("a") == 3
        assert table.stats_version == 1

    def test_registrations_bump_version(self):
        cat = Catalog()
        v0 = cat.stats_version
        cat.create_table("t", Schema.of(("a", "int", 8)),
                         stats=TableStats(10, {"a": 5}),
                         clustering_order=SortOrder(["a"]))
        v1 = cat.stats_version
        assert v1 > v0
        cat.create_index("t_a", "t", SortOrder(["a"]))
        assert cat.stats_version > v1
