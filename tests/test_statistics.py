"""StatsView derivation tests: distincts, keys, group statistics, joins."""

import pytest

from repro.core.sort_order import AttributeEquivalence
from repro.storage import DistinctSketch, Schema, StatsView, TableStats


def view(schema_cols, n, distinct, keys=(), groups=None):
    schema = Schema.of(*schema_cols)
    return StatsView(schema, n, distinct, None,
                     [frozenset(k) for k in keys], groups or {})


class TestDistinct:
    def test_single_column(self):
        v = view(["a", "b"], 100, {"a": 10})
        assert v.distinct_of("a") == 10
        assert v.distinct_of("b") == 100  # unknown → unique

    def test_capped_by_rows(self):
        v = view(["a"], 5, {"a": 100})
        assert v.distinct_of("a") == 5

    def test_set_independence(self):
        v = view(["a", "b"], 10_000, {"a": 10, "b": 20})
        assert v.distinct_of_set(["a", "b"]) == 200

    def test_set_capped(self):
        v = view(["a", "b"], 50, {"a": 10, "b": 20})
        assert v.distinct_of_set(["a", "b"]) == 50

    def test_group_statistic_wins(self):
        v = view(["a", "b"], 10_000, {"a": 100, "b": 100},
                 groups={frozenset({"a", "b"}): 150})
        assert v.distinct_of_set(["a", "b"]) == 150

    def test_key_makes_set_unique(self):
        v = view(["a", "b", "c"], 1000, {"a": 10, "b": 10},
                 keys=[{"a", "b"}])
        assert v.distinct_of_set(["a", "b"]) == 1000
        assert v.distinct_of_set(["a", "b", "c"]) == 1000  # superset of key

    def test_equivalence_fallback(self):
        eq = AttributeEquivalence()
        eq.add_equivalence("a", "x")
        schema = Schema.of("a")
        v = StatsView(schema, 100, {"a": 7}, eq)
        assert v.distinct_of("x") == 7

    def test_empty(self):
        v = view(["a"], 0, {})
        assert v.distinct_of("a") == 0
        assert v.distinct_of_set(["a"]) == 0
        assert v.distinct_of_set([]) == 1


class TestDerivation:
    def test_scaled(self):
        v = view(["a"], 1000, {"a": 100})
        half = v.scaled(0.5)
        assert half.N == 500
        assert half.distinct_of("a") == 100

    def test_scaled_caps_distinct(self):
        v = view(["a"], 1000, {"a": 800})
        tiny = v.scaled(0.01)
        assert tiny.distinct_of("a") == 10  # capped at N

    def test_projected_drops_keys(self):
        v = view(["a", "b"], 100, {"a": 10}, keys=[{"a", "b"}])
        p = v.projected(["a"])
        assert p.schema.names == ("a",)
        assert p.keys == ()

    def test_grouped(self):
        v = view(["a", "b"], 1000, {"a": 10, "b": 5})
        out_schema = Schema.of("a", "b", "cnt")
        g = v.grouped(["a", "b"], out_schema)
        assert g.N == 50
        assert frozenset({"a", "b"}) in g.keys

    def test_B_blocks(self):
        v = StatsView(Schema.of(("a", "int", 400)), 100, {})
        assert v.B(4096) == 10


class TestJoinEstimation:
    def test_independent_join(self):
        l = view(["a"], 1000, {"a": 100})
        r = view(["b"], 500, {"b": 50})
        j = l.join(r, [("a", "b")])
        assert j.N == 1000 * 500 / 100

    def test_fk_join_via_key(self):
        """Pair set covering the build side's key ⇒ FK-style cardinality."""
        dim = view(["pk", "payload"], 800, {"pk": 800}, keys=[{"pk"}])
        fact = view(["fk"], 10_000, {"fk": 800})
        j = fact.join(dim, [("fk", "pk")])
        assert j.N == pytest.approx(10_000)

    def test_correlated_pair_group_stat(self):
        """The TPC-H (partkey, suppkey) situation: group statistic keeps the
        estimate at N_fact instead of collapsing it."""
        ps = view(["pk", "sk"], 800, {"pk": 200, "sk": 100}, keys=[{"pk", "sk"}])
        li = view(["lpk", "lsk"], 10_000, {"lpk": 200, "lsk": 100},
                  groups={frozenset({"lpk", "lsk"}): 800})
        j = li.join(ps, [("lpk", "pk"), ("lsk", "sk")])
        assert j.N == pytest.approx(10_000)

    def test_key_propagation(self):
        dim = view(["pk", "d"], 100, {"pk": 100}, keys=[{"pk"}])
        fact = view(["fk", "fid"], 1000, {"fk": 100, "fid": 1000},
                    keys=[{"fid"}])
        j = fact.join(dim, [("fk", "pk")])
        assert frozenset({"fid"}) in j.keys   # dim key covered ⇒ fact keys live

    def test_join_distinct_of_join_columns(self):
        l = view(["a"], 1000, {"a": 100})
        r = view(["b"], 500, {"b": 50})
        j = l.join(r, [("a", "b")])
        assert j.distinct_of("a") == 50
        assert j.distinct_of("b") == 50

    def test_empty_side(self):
        l = view(["a"], 0, {})
        r = view(["b"], 100, {"b": 10})
        assert l.join(r, [("a", "b")]).N == 0


class TestTableStats:
    def test_measure(self):
        schema = Schema.of("a", "b")
        stats = TableStats.measure([(1, 1), (1, 2), (2, 2)], schema)
        assert stats.num_rows == 3
        assert stats.distinct_of("a") == 2

    def test_declared_defaults(self):
        stats = TableStats(100)
        assert stats.distinct_of("anything") == 100

    def test_zero_rows(self):
        assert TableStats(0).distinct_of("a") == 0


class TestPerShardStats:
    def test_measure_shards_matches_shard_bounds(self):
        from repro.engine import shard_bounds
        from repro.storage import measure_shards

        schema = Schema.of("a", "b")
        rows = [(i // 3, i % 7) for i in range(20)]
        shards = measure_shards(rows, schema, 4)
        assert [s.num_rows for s in shards] == [
            hi - lo for lo, hi in (shard_bounds(20, 4, i) for i in range(4))]
        # Distincts are measured per slice, not scaled globals.
        for i, stats in enumerate(shards):
            lo, hi = shard_bounds(20, 4, i)
            assert stats.distinct_of("a") == len({r[0] for r in rows[lo:hi]})

    def test_measure_partitions_row_count_skew(self):
        from repro.storage import RangePartitioning, measure_partitions

        schema = Schema.of("k", "v")
        part = RangePartitioning("k", (10, 20))
        rows = [(k, 0) for k in [1] * 8 + [15] * 1 + [25] * 1]
        stats = measure_partitions(rows, schema, 0, part.partition_index, 3)
        assert [s.num_rows for s in stats] == [8, 1, 1]

    def test_table_caches_and_invalidates(self):
        from repro.core.sort_order import SortOrder
        from repro.storage import RangePartitioning, Table

        schema = Schema.of("k", "v")
        table = Table("t", schema, rows=[(i % 4, i) for i in range(16)],
                      clustering_order=SortOrder(["k"]),
                      partitioning=RangePartitioning("k", (2,)))
        first = table.shard_stats(4)
        assert table.shard_stats(4) is first  # cached
        parts = table.partition_stats()
        assert [p.num_rows for p in parts] == [8, 8]
        table.update_stats()  # stats replaced → measured caches dropped
        assert table.shard_stats(4) is not first

    def test_update_stats_refreshes_partition_row_ranges(self):
        """Regression: the bisected partition row ranges are measured
        state too — growing the rows and refreshing stats must not leave
        partition scans slicing stale ranges (rows were silently dropped
        before the stats setter cleared this cache)."""
        from repro.core.sort_order import SortOrder
        from repro.engine import ExecutionContext, RangePartitionScan
        from repro.storage import RangePartitioning, Table

        schema = Schema.of("k", "v")
        table = Table("t", schema, rows=[(i % 4, i) for i in range(8)],
                      clustering_order=SortOrder(["k"]),
                      partitioning=RangePartitioning("k", (2,)))
        assert table.partition_row_bounds(0) == (0, 4)
        table._rows.extend((i % 4, 100 + i) for i in range(8))
        table._sort_rows_by(SortOrder(["k"]))
        table.update_stats()
        assert table.partition_row_bounds(0) == (0, 8)
        scanned = []
        for i in range(2):
            scanned += RangePartitionScan(table, i).run(ExecutionContext())
        assert scanned == table.rows

    def test_stats_only_table_has_no_shard_stats(self):
        from repro.storage import Table

        schema = Schema.of("k", "v")
        table = Table("t", schema, stats=TableStats(1000, {"k": 10}))
        assert table.shard_stats(4) is None
        assert table.partition_stats() is None


class TestRangePartitioning:
    def test_partition_index_and_bounds(self):
        from repro.storage import RangePartitioning

        part = RangePartitioning("k", (10, 20, 30))
        assert part.num_partitions == 4
        assert part.partition_index(-5) == 0
        assert part.partition_index(10) == 1
        assert part.partition_index(29) == 2
        assert part.partition_index(30) == 3
        assert part.partition_index(None) == 0  # NULLs sort first

    def test_bounds_must_ascend(self):
        from repro.storage import RangePartitioning

        with pytest.raises(ValueError):
            RangePartitioning("k", (10, 10))
        with pytest.raises(ValueError):
            RangePartitioning("k", ())

    def test_contiguous_row_bounds_tile_the_table(self):
        from repro.core.sort_order import SortOrder
        from repro.storage import RangePartitioning, Table

        schema = Schema.of("k", "v")
        rows = [(k, k * 2) for k in [0, 1, 1, 5, 7, 7, 9]]
        table = Table("t", schema, rows=rows,
                      clustering_order=SortOrder(["k"]),
                      partitioning=RangePartitioning("k", (2, 8)))
        assert table.partition_contiguous
        ranges = [table.partition_row_bounds(i) for i in range(3)]
        assert ranges == [(0, 3), (3, 6), (6, 7)]

    def test_unclustered_partitions_not_contiguous(self):
        from repro.storage import RangePartitioning, Table

        schema = Schema.of("k", "v")
        table = Table("t", schema, rows=[(3, 0), (1, 1), (2, 2)],
                      partitioning=RangePartitioning("k", (2,)))
        assert not table.partition_contiguous
        assert table.partition_row_bounds(0) is None


# -- deferred distinct sketches ------------------------------------------------------------
def _eager(values):
    """Registers of the eager build: one sketch over the distinct values."""
    return bytes(DistinctSketch.of_values(set(values)).registers)


def _sketched_catalogs():
    """The TPC-H and trading catalogs, each with one table range
    partitioned, so tables, aliases, shards and partitions all appear."""
    from repro.storage import RangePartitioning
    from repro.workloads import tpch_catalog, trading_catalog

    tpch = tpch_catalog(scale=0.005, seed=7)
    tpch.table("lineitem").set_partitioning(RangePartitioning("l_orderkey", (20, 45)))
    trading = trading_catalog()
    trading.table("basket").set_partitioning(RangePartitioning("b_symbol", ("SYM0100",)))
    return tpch, trading


def _measured_stats(table, shards=4):
    """``(stats, rows it describes)`` of *table*, its shards and its
    partitions, the rows computed here independently of the storage code."""
    from repro.engine import shard_bounds

    rows = table.rows
    out = [(table.stats, rows)]
    for i, stats in enumerate(table.shard_stats(shards)):
        lo, hi = shard_bounds(len(rows), shards, i)
        out.append((stats, rows[lo:hi]))
    if table.partitioning is not None:
        part = table.partitioning
        at = table.schema.names.index(part.column)
        for i, stats in enumerate(table.partition_stats()):
            out.append((stats, [r for r in rows
                                if part.partition_index(r[at]) == i]))
    return out


def _all_sketches(catalog):
    for table in catalog.tables():
        for stats, _ in _measured_stats(table):
            yield from stats.sketches.values()


class TestDeferredSketches:
    def test_registers_match_the_eager_build(self):
        """Every column of every table (aliases included), shard and
        range partition holds exactly the eager build's registers."""
        checked = 0
        for catalog in _sketched_catalogs():
            for table in catalog.tables():
                for stats, rows in _measured_stats(table):
                    assert set(stats.sketches) == set(table.schema.names)
                    for i, name in enumerate(table.schema.names):
                        assert bytes(stats.sketches[name].registers) == \
                            _eager(r[i] for r in rows), (table.name, name)
                        checked += 1
        assert checked > 250

    def test_refresh_and_copies_build_nothing(self):
        """A refresh, then every place that copies or ships a sketch
        map, reads no sketch."""
        import pickle

        from repro.storage import catalog_payload

        for catalog in _sketched_catalogs():
            for table in list(catalog.tables()):
                catalog.refresh_stats(table.name)
            catalog.alias_table("tran" if catalog.has_table("tran")
                                else "part", "copy", "c_")
            views = []
            for table in catalog.tables():
                first = table.schema.names[0]
                for stats, _ in _measured_stats(table):
                    view = StatsView.of_table(table.schema, stats)
                    views += [view, view.projected([first]),
                              view.grouped([first], view.schema.project([first]))]
            tables = [StatsView.of_table(t.schema, t.stats)
                      for t in catalog.tables()]
            for left, right in zip(tables, tables[1:]):
                views.append(left.join(right, [(left.schema.names[0],
                                                right.schema.names[0])]))
            pickle.dumps(views, pickle.HIGHEST_PROTOCOL)
            pickle.dumps(catalog_payload(catalog), pickle.HIGHEST_PROTOCOL)
            assert all(s._registers is None for s in _all_sketches(catalog))

    def test_shipped_views_carry_no_sketches(self):
        import pickle

        catalog, _ = _sketched_catalogs()
        table = catalog.table("part")
        view = StatsView.of_table(table.schema, table.stats)
        clone = pickle.loads(pickle.dumps(view, pickle.HIGHEST_PROTOCOL))
        assert clone.sketch_of("p_partkey") is None
        assert clone.distinct_of("p_partkey") == view.distinct_of("p_partkey")
        assert clone.schema == view.schema and clone.keys == view.keys

    def test_payload_bytes_do_not_depend_on_reads(self):
        """A deferred sketch pickles as where its values are, built or
        not, so the worker handoff is the same size either way."""
        import pickle

        from repro.storage import catalog_payload

        for catalog in _sketched_catalogs():
            before = pickle.dumps(catalog_payload(catalog),
                                  pickle.HIGHEST_PROTOCOL)
            for sketch in _all_sketches(catalog):
                sketch.estimate()
            after = pickle.dumps(catalog_payload(catalog),
                                 pickle.HIGHEST_PROTOCOL)
            assert len(after) == len(before)

    def test_union_estimate_reads_the_same_values(self):
        from repro.storage import Catalog

        catalog = Catalog()
        schema = Schema.of(("a", "int", 8), ("b", "int", 8))
        for name, shift in (("u1", 0), ("u2", 17)):
            catalog.create_table(name, schema, rows=[
                ((i * 7 + shift) % 41, i % 5) for i in range(300)])
        u1, u2 = catalog.table("u1"), catalog.table("u2")
        merged = StatsView.of_table(u1.schema, u1.stats).union(
            StatsView.of_table(u2.schema, u2.stats))
        for i, name in enumerate(("a", "b")):
            eager = DistinctSketch.of_values({r[i] for r in u1.rows}).union(
                DistinctSketch.of_values({r[i] for r in u2.rows}))
            no_overlap = u1.stats.distinct[name] + u2.stats.distinct[name]
            assert merged.distinct_of(name) == min(
                600, no_overlap, eager.estimate())
            assert bytes(merged.sketch_of(name).registers) == \
                bytes(eager.registers)

    def test_greedy_m2m_shard_merge_reads_the_same_values(self):
        """The many-to-many scorer merges per-shard sketches for a
        column the declared statistics leave out."""
        from repro.engine import shard_bounds
        from repro.logical.algebra import BaseRelation
        from repro.optimizer.pipeline.join_enumeration import (
            _SKEW_PROBE_SHARDS,
            _leaf_attr_stats,
        )
        from repro.storage import Catalog

        catalog = Catalog()
        rows = [(i % 5, i % 9) for i in range(600)]
        catalog.create_table("c", Schema.of(("c_y", "int", 8), ("c_v", "int", 8)),
                             rows=rows, stats=TableStats(600, {"c_v": 9}))
        eager = None
        for i in range(_SKEW_PROBE_SHARDS):
            lo, hi = shard_bounds(600, _SKEW_PROBE_SHARDS, i)
            shard = DistinctSketch.of_values({r[0] for r in rows[lo:hi]})
            eager = shard if eager is None else eager.union(shard)
        _, distinct, _ = _leaf_attr_stats(catalog, BaseRelation("c"))["c_y"]
        assert distinct == max(1.0, min(600.0, eager.estimate()))
        assert distinct < 10

    def test_sketch_built_in_a_spawned_worker_equals_the_parents(self):
        """The worker handoff carries deferred sketches as references
        into the rows it ships: a spawned process builds the same
        registers from the payload alone."""
        import multiprocessing

        from repro.storage import catalog_payload

        catalog, _ = _sketched_catalogs()
        payload = catalog_payload(catalog)
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            built = pool.apply(_registers_from_payload, (payload,))
        assert built == _registers_by_table(catalog)
        assert len(built) == 4


def _registers_by_table(catalog):
    return {t.name: {n: bytes(s.registers) for n, s in t.stats.sketches.items()}
            for t in catalog.tables()}


def _registers_from_payload(payload):
    from repro.storage import build_catalog

    return _registers_by_table(build_catalog(payload))


class TestRefreshStats:
    def test_stats_only_table_refuses_to_re_measure(self):
        """Re-measuring a stats-only table used to replace its declared
        statistics with those of an empty row list (``partsupp`` fell
        from 800,000 rows to 0) and still bump its version."""
        from repro.workloads import tpch_stats_catalog

        catalog = tpch_stats_catalog()
        declared = catalog.table("partsupp").stats
        version = catalog.stats_version
        with pytest.raises(ValueError, match="partsupp"):
            catalog.refresh_stats("partsupp")
        assert catalog.table("partsupp").stats is declared
        assert declared.num_rows == 800_000
        assert catalog.stats_version == version
        replaced = TableStats(1_000, {"ps_partkey": 100})
        assert catalog.refresh_stats("partsupp", replaced) is replaced
        assert catalog.stats_version == version + 1
