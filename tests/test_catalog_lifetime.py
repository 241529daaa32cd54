"""A finished query leaves nothing that pins its catalog.

An ``OptimizationRun`` used to reference itself (``chosen``, its search
list, bound-method memo keys), so every cold prepare kept ``Catalog ->
Table -> rows`` alive until the cyclic collector happened to run.  With
the collector off, dropping the last session or server must free it.
"""

import gc
import weakref

import pytest

from repro.logical import Query
from repro.service import QueryServer, QuerySession
from repro.storage import Catalog, Schema


def make_catalog() -> Catalog:
    cat = Catalog()
    cat.create_table("left", Schema.of(("a", "int", 8), ("b", "int", 8)),
                     rows=[(i % 7, i % 3) for i in range(120)])
    cat.create_table("right", Schema.of(("c", "int", 8), ("d", "int", 8)),
                     rows=[(i % 5, i % 3) for i in range(80)])
    return cat


def queries():
    # A join (memoised join estimates, phase-2 refinement) and a sharded sort.
    yield (Query.table("left").join("right", on=[("a", "c"), ("b", "d")])
           .order_by("a", "b"))
    yield Query.table("left").order_by("b", "a")


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_catalog_dies_with_its_last_session(no_cyclic_gc):
    catalog = make_catalog()
    alive = weakref.ref(catalog)
    session = QuerySession(catalog)
    for query in queries():
        assert session.execute(query)
    del session, catalog
    assert alive() is None


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_catalog_dies_with_its_last_server(no_cyclic_gc, backend):
    catalog = make_catalog()
    alive = weakref.ref(catalog)
    server = QueryServer(catalog, backend=backend, parallelism=2,
                         pool_workers=2)
    for query in queries():
        assert server.execute(query).rows
    server.close()
    del server, catalog
    assert alive() is None
