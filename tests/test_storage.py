"""Storage substrate tests: schemas, tables, indexes, catalog, aliasing."""

import pytest

from repro.core.sort_order import SortOrder
from repro.storage import (
    Catalog,
    Column,
    FunctionalDependency,
    Index,
    Schema,
    SystemParameters,
    Table,
    TableStats,
    blocks_for,
)
from tests.conftest import clustered


class TestSchema:
    def test_of_shorthand(self):
        s = Schema.of(("a", "int", 4), "b", Column("c", "str", 20))
        assert s.names == ("a", "b", "c")
        assert s["a"].avg_size == 4
        assert s["b"].avg_size == 8

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Schema.of("a", "a")

    def test_positions(self):
        s = Schema.of("a", "b", "c")
        assert s.positions(["c", "a"]) == (2, 0)
        with pytest.raises(KeyError):
            s.position("zz")

    def test_row_bytes(self):
        s = Schema.of(("a", "int", 4), ("b", "str", 16))
        assert s.row_bytes == 20

    def test_project_and_concat(self):
        s = Schema.of("a", "b", "c")
        assert s.project(["c", "a"]).names == ("c", "a")
        t = Schema.of("x", "y")
        assert s.concat(t).names == ("a", "b", "c", "x", "y")

    def test_rename(self):
        s = Schema.of("a", "b")
        assert s.rename({"a": "z"}).names == ("z", "b")

    def test_bad_column(self):
        with pytest.raises(ValueError):
            Column("", "int", 8)
        with pytest.raises(ValueError):
            Column("a", "int", 0)


class TestFunctionalDependency:
    def test_key_fd(self):
        fd = FunctionalDependency.key(["a"], ["a", "b", "c"])
        assert fd.determinants == {"a"}
        assert fd.dependents == {"b", "c"}

    def test_empty_determinants_rejected(self):
        with pytest.raises(ValueError):
            FunctionalDependency(frozenset(), frozenset({"a"}))


class TestTable:
    def test_materialised_sorted_by_clustering(self):
        schema = Schema.of("a", "b")
        t = Table("t", schema, rows=[(3, 1), (1, 2), (2, 3)],
                  clustering_order=SortOrder(["a"]))
        assert [r[0] for r in t.rows] == [1, 2, 3]
        assert clustered(t)

    def test_stats_measured(self):
        schema = Schema.of("a", "b")
        t = Table("t", schema, rows=[(1, 1), (1, 2), (2, 2)])
        assert t.stats.num_rows == 3
        assert t.stats.distinct_of("a") == 2
        assert t.stats.distinct_of("b") == 2

    def test_stats_only_rejects_scan(self):
        schema = Schema.of("a")
        t = Table("t", schema, stats=TableStats(100, {"a": 10}))
        assert len(t) == 100
        assert not t.is_materialized
        with pytest.raises(RuntimeError):
            _ = t.rows

    def test_requires_rows_or_stats(self):
        with pytest.raises(ValueError):
            Table("t", Schema.of("a"))

    def test_invalid_clustering_column(self):
        with pytest.raises(ValueError):
            Table("t", Schema.of("a"), rows=[], clustering_order=SortOrder(["b"]))

    def test_primary_key_fds(self):
        t = Table("t", Schema.of("a", "b", "c"), rows=[(1, 2, 3)],
                  primary_key=["a"])
        fds = t.functional_dependencies()
        assert len(fds) == 1
        assert fds[0].determinants == {"a"}
        assert fds[0].dependents == {"b", "c"}


class TestIndex:
    def make_table(self):
        schema = Schema.of(("a", "int", 8), ("b", "int", 8), ("c", "str", 30))
        rows = [(i % 5, i, f"v{i}") for i in range(20)]
        return Table("t", schema, rows=rows, clustering_order=SortOrder(["b"]))

    def test_covers(self):
        t = self.make_table()
        ix = Index("ix", t, SortOrder(["a"]), included=["b"])
        assert ix.covers({"a", "b"})
        assert not ix.covers({"a", "c"})
        assert ix.columns == ("a", "b")

    def test_scan_rows_sorted_by_key(self):
        t = self.make_table()
        ix = Index("ix", t, SortOrder(["a"]), included=["b"])
        rows = ix.scan_rows()
        assert len(rows) == 20
        assert [r[0] for r in rows] == sorted(r[0] for r in t.rows)

    def test_null_in_a_key_column_sorts_first(self):
        """A key column holding a NULL beside a value: raw keys raise
        ``TypeError``, and the leaf image (like a clustered table) is
        then ordered NULLS FIRST, stable among equal keys."""
        schema = Schema.of(("a", "int", 8), ("b", "int", 8))
        rows = [(2, 0), (None, 1), (1, 2), (None, 3), (1, None), (2, 5)]
        t = Table("t", schema, rows=list(rows), clustering_order=SortOrder(["a"]))
        assert t.rows == [(None, 1), (None, 3), (1, 2), (1, None), (2, 0), (2, 5)]
        ix = Index("ix", t, SortOrder(["a", "b"]))
        assert ix.scan_rows() == \
            [(None, 1), (None, 3), (1, None), (1, 2), (2, 0), (2, 5)]
        single = Index("single", t, SortOrder(["b"]))
        assert single.scan_rows() == [(None,), (0,), (1,), (2,), (3,), (5,)]

    def test_leaf_image_is_built_once_per_table_version(self):
        t = self.make_table()
        ix = Index("ix", t, SortOrder(["a"]), included=["b"])
        image = ix.scan_rows()
        assert ix.scan_rows() is image  # every scan shares it
        t.update_stats()  # a statistics refresh is a new table version
        rebuilt = ix.scan_rows()
        assert rebuilt is not image and rebuilt == image
        t.rows.append((0, -1, "new"))  # so is a row count that moved
        assert ix.scan_rows()[:5] == [(0, 0), (0, 5), (0, 10), (0, 15), (0, -1)]
        assert len(ix.scan_rows()) == 21

    def test_entry_bytes_narrower_than_row(self):
        t = self.make_table()
        ix = Index("ix", t, SortOrder(["a"]), included=["b"])
        assert ix.entry_bytes() < t.schema.row_bytes + 8

    def test_key_overlap_rejected(self):
        t = self.make_table()
        with pytest.raises(ValueError):
            Index("ix", t, SortOrder(["a"]), included=["a"])

    def test_unknown_column_rejected(self):
        t = self.make_table()
        with pytest.raises(ValueError):
            Index("ix", t, SortOrder(["zz"]))


class TestCatalog:
    def test_register_and_lookup(self):
        cat = Catalog()
        t = cat.create_table("t", Schema.of("a"), rows=[(1,)])
        assert cat.table("t") is t
        assert cat.has_table("t")
        with pytest.raises(KeyError):
            cat.table("missing")

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.create_table("t", Schema.of("a"), rows=[])
        with pytest.raises(ValueError):
            cat.create_table("t", Schema.of("a"), rows=[])

    def test_covering_indexes(self):
        cat = Catalog()
        cat.create_table("t", Schema.of("a", "b", "c"), rows=[(1, 2, 3)])
        cat.create_index("ix", "t", SortOrder(["a"]), included=["b"])
        assert [i.name for i in cat.indexes_of("t") if i.covers({"a", "b"})] == ["ix"]
        assert not any(i.covers({"a", "c"}) for i in cat.indexes_of("t"))

    def test_index_lookup_names_what_is_missing(self):
        """An unknown covering index is a ``KeyError`` naming table and
        index (it was a bare ``StopIteration``) — from the catalog, the
        plan builder and lowering alike."""
        from repro.optimizer.manual import PlanBuilder
        cat = Catalog()
        cat.create_table("t", Schema.of("a", "b"), rows=[(1, 2)])
        cat.create_table("u", Schema.of("a"), rows=[(1,)])
        ix = cat.create_index("ix", "t", SortOrder(["a"]), included=["b"])
        assert cat.index("t", "ix") is ix
        builder = PlanBuilder(cat)
        scan = builder.covering_scan("t", "ix")
        cat.create_index("ux", "u", SortOrder(["a"]))
        stale = builder.covering_scan("u", "ux")
        cat._by_table["u"].clear()  # the index is dropped under the plan
        for lookup in (lambda: cat.index("t", "nope"),
                       lambda: cat.index("u", "ix"),  # another table's
                       lambda: builder.covering_scan("t", "nope"),
                       lambda: stale.to_operator(cat)):
            with pytest.raises(KeyError, match=r"no index '\w+' on table '\w+'"):
                lookup()
        assert scan.to_operator(cat).run()

    def test_alias_table(self):
        cat = Catalog()
        cat.create_table("t", Schema.of(("a", "int", 8), ("b", "int", 8)),
                         rows=[(2, 1), (1, 2)], clustering_order=SortOrder(["a"]),
                         primary_key=["a"])
        alias = cat.alias_table("t", "t2", "x_")
        assert alias.schema.names == ("x_a", "x_b")
        assert alias.clustering_order == SortOrder(["x_a"])
        assert alias.primary_key == ("x_a",)
        assert alias.rows == cat.table("t").rows  # shared, not copied
        assert alias.stats.distinct_of("x_a") == 2

    def test_system_parameters(self):
        p = SystemParameters(block_size=4096, sort_memory_blocks=10)
        assert p.sort_memory_bytes == 40960


class TestBlocksFor:
    def test_rounding(self):
        assert blocks_for(0, 100) == 0
        assert blocks_for(1, 100, 4096) == 1
        assert blocks_for(41, 100, 4096) == 2

    @pytest.mark.parametrize("rows,width", [(10, 10), (1000, 55), (77, 4096)])
    def test_monotone(self, rows, width):
        assert blocks_for(rows, width) <= blocks_for(rows + 1, width)
        assert blocks_for(rows, width) <= blocks_for(rows, width + 1)
