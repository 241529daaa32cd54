"""Plan-cache admission policy (LRU), one cache shared by a server's
sessions, per-table invalidation granularity, the cache key a Query
object keeps, and session-level observability via QuerySession.stats()."""

import threading

import repro.service.session as session_module
from repro.core.sort_order import SortOrder
from repro.expr import col
from repro.logical import Query, referenced_tables
from repro.service import PlanCache, QueryServer, QuerySession
from repro.storage import Catalog, Schema, TableStats


def make_catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "orders", Schema.of(("o_id", "int", 8), ("o_cust", "int", 8)),
        stats=TableStats(100_000, {"o_id": 100_000, "o_cust": 5_000}),
        clustering_order=SortOrder(["o_id"]))
    cat.create_table(
        "customers", Schema.of(("c_id", "int", 8), ("c_region", "int", 8)),
        stats=TableStats(5_000, {"c_id": 5_000, "c_region": 10}),
        clustering_order=SortOrder(["c_id"]))
    cat.create_table(
        "items", Schema.of(("i_id", "int", 8), ("i_price", "int", 8)),
        stats=TableStats(50_000, {"i_id": 50_000, "i_price": 900}))
    return cat


def orders_query():
    return Query.table("orders").where(col("o_cust").lt(100)).order_by("o_id")


def items_query():
    return Query.table("items").order_by("i_id")


# -- per-table invalidation --------------------------------------------------------------
class TestPerTableInvalidation:
    def test_referenced_tables(self):
        q = (Query.table("orders")
             .join("customers", on=[("o_cust", "c_id")])
             .order_by("o_id"))
        assert referenced_tables(q.expr) == frozenset({"orders", "customers"})

    def test_unrelated_refresh_keeps_plan(self):
        cat = make_catalog()
        session = QuerySession(cat)
        session.prepare(orders_query())
        session.prepare(items_query())
        cat.refresh_stats("customers", TableStats(9_000, {"c_id": 9_000,
                                                          "c_region": 12}))
        # Neither cached plan reads customers: both still served hot.
        assert session.prepare(orders_query()).from_cache
        assert session.prepare(items_query()).from_cache
        assert session.cache.stats.invalidations == 0

    def test_targeted_refresh_evicts_only_readers(self):
        cat = make_catalog()
        session = QuerySession(cat)
        session.prepare(orders_query())
        session.prepare(items_query())
        cat.refresh_stats("orders", TableStats(200_000, {"o_id": 200_000,
                                                         "o_cust": 5_000}))
        assert not session.prepare(orders_query()).from_cache
        assert session.prepare(items_query()).from_cache
        assert session.cache.stats.invalidations == 1

    def test_new_index_evicts_only_that_tables_plans(self):
        cat = make_catalog()
        session = QuerySession(cat)
        session.prepare(orders_query())
        session.prepare(items_query())
        cat.create_index("items_id", "items", SortOrder(["i_id"]),
                         included=["i_price"])
        assert session.prepare(orders_query()).from_cache
        assert not session.prepare(items_query()).from_cache

    def test_new_unrelated_table_keeps_all_plans(self):
        cat = make_catalog()
        session = QuerySession(cat)
        session.prepare(orders_query())
        cat.create_table("audit", Schema.of(("a_id", "int", 8)),
                         stats=TableStats(10, {"a_id": 10}))
        assert session.prepare(orders_query()).from_cache

    def test_join_plan_invalidated_by_either_side(self):
        cat = make_catalog()
        session = QuerySession(cat)
        join = (Query.table("orders")
                .join("customers", on=[("o_cust", "c_id")])
                .order_by("o_id"))
        session.prepare(join)
        cat.refresh_stats("customers", TableStats(6_000, {"c_id": 6_000,
                                                          "c_region": 10}))
        assert not session.prepare(join).from_cache


# -- the key a Query object keeps ---------------------------------------------------------
def count_fingerprints(monkeypatch) -> list:
    """Patch the session's ``logical_fingerprint`` to record each call."""
    calls = []
    real = session_module.logical_fingerprint

    def counted(expr, required):
        calls.append(expr)
        return real(expr, required)

    monkeypatch.setattr(session_module, "logical_fingerprint", counted)
    return calls


class TestQueryKeyMemo:
    def test_second_prepare_of_one_query_fingerprints_nothing(self, monkeypatch):
        calls = count_fingerprints(monkeypatch)
        session = QuerySession(make_catalog())
        query = orders_query()
        first = session.prepare(query)
        second = session.prepare(query)
        assert len(calls) == 1
        assert second.from_cache and second.fingerprint == first.fingerprint
        assert second.tables == first.tables == frozenset({"orders"})
        assert second.required_order == SortOrder(["o_id"])
        # A bare LogicalExpr is walked on every prepare.
        session.prepare(query.expr)
        session.prepare(query.expr)
        assert len(calls) == 3

    def test_equal_queries_share_one_entry(self, monkeypatch):
        calls = count_fingerprints(monkeypatch)
        session = QuerySession(make_catalog())
        first = session.prepare(orders_query())
        second = session.prepare(orders_query())
        assert len(calls) == 2  # one per object
        assert second.from_cache and second.plan is first.plan
        assert len(session.cache) == 1

    def test_order_parallelism_and_enumerator_never_collide(self):
        cat = make_catalog()
        cache = PlanCache()
        session = QuerySession(cat, cache=cache)
        other = QuerySession(cat, cache=cache, join_enumerator="greedy-m2m")
        query = (Query.table("orders")
                 .join("customers", on=[("o_cust", "c_id")]))
        by_o_id = SortOrder(["o_id"])
        keys = {}
        for name, prepare in (
                ("plain", lambda q: session.prepare(q)),
                ("o_id", lambda q: session.prepare(q, by_o_id)),
                ("c_id", lambda q: session.prepare(q, SortOrder(["c_id"]))),
                ("p4", lambda q: session.prepare(q, by_o_id, parallelism=4)),
                ("greedy", lambda q: other.prepare(q, by_o_id)),
                ("o_id again", lambda q: session.prepare(q, by_o_id))):
            prepared = prepare(query)
            fresh = prepare(query.expr)  # keyed without the memo
            assert prepared.fingerprint == fresh.fingerprint, name
            assert fresh.from_cache, name
            keys[name] = prepared.fingerprint
        assert keys.pop("o_id again") == keys["o_id"]
        assert len(set(keys.values())) == len(keys) == len(cache)

    def test_refresh_invalidates_a_memoized_query(self, monkeypatch):
        calls = count_fingerprints(monkeypatch)
        cat = make_catalog()
        session = QuerySession(cat)
        query = orders_query()
        session.prepare(query)
        assert session.prepare(query).from_cache
        cat.refresh_stats("orders", TableStats(200_000, {"o_id": 200_000,
                                                         "o_cust": 5_000}))
        assert not session.prepare(query).from_cache
        assert session.prepare(query).from_cache
        assert len(calls) == 1
        assert session.cache.stats.invalidations == 1

    def test_threads_fill_one_memo(self, monkeypatch):
        """Sessions on four threads prepare one Query object at once:
        each thread fingerprints it at most once (the threads may race
        to fill the slot), and every prepare gets the same key."""
        calls = count_fingerprints(monkeypatch)
        cache = PlanCache()
        cat = make_catalog()
        query = orders_query()
        prints: list = []
        start = threading.Barrier(4)

        def run() -> None:
            session = QuerySession(cat, cache=cache)
            start.wait()
            prints.extend(session.prepare(query).fingerprint
                          for _ in range(50))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert 1 <= len(calls) <= 4
        assert len(prints) == 200 and len(set(prints)) == 1
        assert len(cache) == 1


# -- observability -----------------------------------------------------------------------
class TestSessionStats:
    def test_stats_surface_all_counters(self):
        session = QuerySession(make_catalog(), cache=PlanCache(capacity=1))
        session.prepare(orders_query())
        session.prepare(orders_query())
        session.prepare(items_query())  # evicts the orders plan (capacity 1)
        session.prepare(orders_query())  # miss again
        stats = session.stats()
        assert stats["prepares"] == 4
        assert stats["optimizations"] == 3
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 3
        assert stats["cache_evictions"] == 2
        assert stats["cache_size"] == 1
        assert stats["cache_capacity"] == 1
        assert 0.0 < stats["cache_hit_rate"] < 1.0
        assert stats["optimize_seconds"] > 0.0


# -- the server's shared cache -----------------------------------------------------------
class TestSharedCache:
    def test_server_cache_capacity_bounds_the_shared_cache(self):
        with QueryServer(make_catalog(), cache_capacity=1,
                         max_inflight=2) as server:
            first, second = server._sessions
            first.prepare(orders_query())
            assert second.prepare(orders_query()).from_cache
            second.prepare(items_query())  # evicts the orders plan
            assert not first.prepare(orders_query()).from_cache
            stats = server.stats()
        assert stats["cache_capacity"] == 1 and stats["cache_size"] == 1
        assert stats["cache_evictions"] == 2
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 3
