"""Interesting-order strategy tests (PYRO family, Section 5.2.1)."""

import pytest

from repro.core.interesting import (
    ArbitraryOrderStrategy,
    ExhaustiveOrderStrategy,
    FavorableOrderStrategy,
    ForcedOrderStrategy,
    PostgresHeuristicStrategy,
    STRATEGY_VARIANTS,
    make_strategy,
)
from repro.core.sort_order import EMPTY_ORDER, SortOrder
from repro.logical import Query
from repro.optimizer.pipeline.groups import GroupTable
from repro.storage import Catalog, Schema, TableStats


@pytest.fixture
def setup():
    cat = Catalog()
    cat.create_table(
        "r", Schema.of(("a", "int", 8), ("b", "int", 8), ("c", "int", 8)),
        stats=TableStats(10_000, {"a": 100, "b": 100, "c": 100}),
        clustering_order=SortOrder(["b", "a"]))
    cat.create_table(
        "s", Schema.of(("x", "int", 8), ("y", "int", 8), ("z", "int", 8)),
        stats=TableStats(10_000, {"x": 100, "y": 100, "z": 100}))
    q = Query.table("r").join("s", on=[("a", "x"), ("b", "y"), ("c", "z")])
    return cat, q.expr, GroupTable(cat, q.expr).favorable


class TestArbitrary:
    def test_single_deterministic_order(self, setup):
        _, join, favorable = setup
        orders = ArbitraryOrderStrategy().join_orders(favorable, join, EMPTY_ORDER)
        assert len(orders) == 1
        assert orders[0].attrs() == {"a", "b", "c"}
        # deterministic
        again = ArbitraryOrderStrategy().join_orders(favorable, join, EMPTY_ORDER)
        assert orders == again


class TestPostgresHeuristic:
    def test_one_order_per_attribute(self, setup):
        _, join, favorable = setup
        orders = PostgresHeuristicStrategy().join_orders(favorable, join, EMPTY_ORDER)
        assert len(orders) == 3
        assert {o[0] for o in orders} == {"a", "b", "c"}
        for o in orders:
            assert o.attrs() == {"a", "b", "c"}

    def test_group_orders(self, setup):
        _, join, favorable = setup
        orders = PostgresHeuristicStrategy().group_orders(
            favorable, None, ["a", "b"], EMPTY_ORDER)
        assert {o[0] for o in orders} == {"a", "b"}


class TestExhaustive:
    def test_all_permutations(self, setup):
        _, join, favorable = setup
        orders = ExhaustiveOrderStrategy().join_orders(favorable, join, EMPTY_ORDER)
        assert len(orders) == 6
        assert len(set(orders)) == 6

    def test_limit_guard(self, setup):
        _, join, favorable = setup
        with pytest.raises(ValueError):
            ExhaustiveOrderStrategy(limit=2).join_orders(favorable, join, EMPTY_ORDER)


class TestFavorable:
    def test_includes_clustering_prefix(self, setup):
        _, join, favorable = setup
        orders = FavorableOrderStrategy().join_orders(favorable, join, EMPTY_ORDER)
        # r clustered on (b, a) → candidate starting (b, a).
        assert any(o[:2] == ("b", "a") for o in orders)
        for o in orders:
            assert o.attrs() == {"a", "b", "c"}

    def test_includes_required_prefix(self, setup):
        _, join, favorable = setup
        required = SortOrder(["c", "a"])
        strategy = FavorableOrderStrategy()
        read = strategy.reads(favorable, join, None, required)
        assert read == required
        orders = strategy.join_orders(favorable, join, read)
        assert any(o[:2] == ("c", "a") for o in orders)

    def test_far_fewer_than_exhaustive(self, setup):
        _, join, favorable = setup
        fav = FavorableOrderStrategy().join_orders(favorable, join, EMPTY_ORDER)
        assert len(fav) < 6

    def test_redundant_prefixes_dropped(self, setup):
        _, join, favorable = setup
        orders = FavorableOrderStrategy().join_orders(favorable, join, EMPTY_ORDER)
        assert len(orders) == len(set(orders))

    def test_right_side_names_canonicalised(self, setup):
        _, join, favorable = setup
        for o in FavorableOrderStrategy().join_orders(favorable, join, EMPTY_ORDER):
            assert o.attrs() <= {"a", "b", "c"}  # never x/y/z


class TestForced:
    def test_forces_specific_order(self, setup):
        _, join, favorable = setup
        forced_perm = SortOrder(["c", "b", "a"])
        strategy = ForcedOrderStrategy(FavorableOrderStrategy(), {join: forced_perm})
        assert strategy.join_orders(favorable, join, EMPTY_ORDER) == [forced_perm]

    def test_falls_back_for_other_nodes(self, setup):
        _, join, favorable = setup
        strategy = ForcedOrderStrategy(ArbitraryOrderStrategy(), {})
        assert len(strategy.join_orders(favorable, join, EMPTY_ORDER)) == 1


class TestRegistry:
    def test_variants(self):
        assert set(STRATEGY_VARIANTS) == {"pyro", "pyro-p", "pyro-o",
                                          "pyro-o-", "pyro-e"}

    def test_make_strategy_partial_flag(self):
        assert make_strategy("pyro-o").partial_sorts is True
        assert make_strategy("pyro-o-").partial_sorts is False

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("pyro-x")
