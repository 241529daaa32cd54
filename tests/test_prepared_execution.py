"""A prepared query is lowered once and run with any values.

The plan cache holds executables: the plan, its parameter names and the
operator tree its first execution lowered.  These tests pin the two
properties that sharing rests on.  *Value independence*: nothing that is
built per cache entry — the lowered tree, the kernels in the
process-global cache, a pool worker's lowered subplan — depends on a
bind value, so five thousand distinct values compile and lower nothing
after the first.  *Re-entrancy*: one tree serves concurrent executions,
each with its own binds, because operators keep nothing about an
execution on ``self`` and the values travel in each execution's
context.

CI runs this module a second time under ``python -X dev -W
error::ResourceWarning``: leaked pool or router threads and unclosed
pipes surface there.
"""

from __future__ import annotations

import ast
import inspect
import pickle
import sys
import threading

import pytest

import repro.engine
from repro.core.sort_order import SortOrder
from repro.engine import (
    Compute,
    ExecutionContext,
    Filter,
    HashAggregate,
    RowSource,
    SortAggregate,
)
from repro.engine.iterators import Operator
from repro.engine.kernels import KERNELS, kernel_stats
from repro.engine.prepared import BoundPlan, BoundRoot
from repro.engine.subplan import shard_subplans, strip_plan
from repro.expr import Const, col, param
from repro.expr.aggregates import AggSpec, count_star
from repro.logical import Query
from repro.service import (
    ProcessPoolBackend,
    QueryServer,
    QuerySession,
    SerialBackend,
)
from repro.storage import Catalog, Schema, SystemParameters

VALUES = 5_000  # more than the kernel cache holds (4,096 entries)
ROWS = 120


def make_catalog(num_rows: int, **params) -> Catalog:
    cat = Catalog(SystemParameters(**params))
    schema = Schema.of(("k", "int", 8), ("g", "int", 8), ("v", "int", 8))
    rows = [(i % 12, i % 5, (i * 37) % 101) for i in range(num_rows)]
    cat.create_table("t", schema, rows=rows)
    return cat


@pytest.fixture()
def catalog() -> Catalog:
    return make_catalog(ROWS)


def template() -> Query:
    return (Query.table("t").where(col("v").lt(param("hi")))
            .select("k", "v").order_by("k", "v"))


def expected(catalog: Catalog, hi: int) -> list[tuple]:
    return sorted((k, v) for k, _, v in catalog.table("t").rows if v < hi)


# -- value independence -------------------------------------------------------------------
def test_five_thousand_values_compile_and_lower_nothing(catalog):
    """Serial backend, then a one-worker pool: after the first execution
    the kernel counters and the cache size are flat, the worker hits its
    lowered-subplan cache for every task, and a plan that was cached
    before the flood still finds every kernel it needs."""
    session = QuerySession(catalog)
    other = session.prepare(Query.table("t").where(col("g").eq(3))
                            .compute(w=col("v") + 1).order_by("k", "w"))
    other_rows = other.execute()
    prepared = session.prepare(template())
    assert prepared.param_names == {"hi"}
    serial = SerialBackend()
    pool = ProcessPoolBackend(catalog, workers=1)
    try:
        for backend in (serial, pool):
            assert backend.run_plan(prepared.bind(hi=-1), catalog) == []
        compiled = kernel_stats()["kernels_compiled"]
        cached = len(KERNELS._cache)
        tree = prepared.prepared.operator(catalog)
        for hi in range(VALUES):
            bound = session.prepare(template()).bind(hi=hi)
            rows = serial.run_plan(bound, catalog)
            assert pool.run_plan(bound, catalog) == rows
            if hi % 250 == 0:
                assert rows == expected(catalog, hi)
        assert kernel_stats()["kernels_compiled"] == compiled
        assert len(KERNELS._cache) == cached
        assert prepared.prepared.operator(catalog) is tree
        described = pool.describe()
        assert described["subplan_cache_misses"] == 1
        assert described["subplan_cache_hits"] == VALUES
    finally:
        pool.close()
    # Lowering the unrelated plan afresh compiles nothing: its kernels
    # were never pushed out by value-keyed entries.
    relowered = strip_plan(other.plan).to_operator(catalog)
    assert kernel_stats()["kernels_compiled"] == compiled
    assert relowered.run(ExecutionContext(catalog)) == other_rows


def test_shard_tasks_are_the_template_plus_the_binds():
    """Cut and stripped once per cache entry; every task pickles and
    runs on a bare context."""
    # The sort spills whole and fits per shard, so the plan fans out.
    catalog = make_catalog(8_000, sort_memory_blocks=8)
    session = QuerySession(catalog)
    prepared = session.prepare(template(), parallelism=4)
    occurrences, tasks = shard_subplans(prepared.bind(hi=40))
    again, other_tasks = shard_subplans(prepared.bind(hi=7))
    assert occurrences and again is occurrences
    for task, other in zip(tasks, other_tasks):
        assert task.prepared is other.prepared
        assert (task.binds, other.binds) == ({"hi": 40}, {"hi": 7})
        shipped = pickle.loads(pickle.dumps(task))
        assert pickle.dumps(shipped.plan) == pickle.dumps(task.plan)
        assert shipped.to_operator(catalog).run(ExecutionContext(catalog)) \
            == task.to_operator(catalog).run(ExecutionContext(catalog))
    rows = [row for task in tasks
            for row in task.to_operator(catalog).run(ExecutionContext(catalog))]
    assert sorted(rows) == expected(catalog, 40)


SOURCE_SCHEMA = Schema.of(("a", "int", 8), ("b", "int", 8))
SOURCE_ROWS = [(i % 4, i) for i in range(40)]


def parameterized_operators(value) -> dict[str, Operator]:
    """Each expression-bearing operator over ``b * value`` (*value* a
    ``Param`` or the ``Const`` it stands for)."""
    def source():
        return RowSource(SOURCE_SCHEMA, SOURCE_ROWS, SortOrder(["a"]))
    scaled = AggSpec("sum", col("b") * value, "s")
    return {
        "Filter": Filter(source(), col("b").lt(value)),
        "Compute": Compute(source(), [("one", col("a") + 1),
                                      ("scaled", col("b") * value)]),
        "SortAggregate": SortAggregate(source(), SortOrder(["a"]),
                                       [count_star("n"), scaled]),
        "HashAggregate": HashAggregate(source(), ["a"],
                                       [count_star("n"), scaled]),
    }


@pytest.mark.parametrize("batch_size", [4, 1024])
@pytest.mark.parametrize("name", ["Filter", "Compute", "SortAggregate",
                                  "HashAggregate"])
def test_operator_reads_its_parameters_from_the_context(name, batch_size):
    """Row loop (tiny batches) and column kernels alike: the operator
    built on ``Param("x")`` run with ``x=7`` is the one built on
    ``Const(7)``; run without a value it raises the seed engine's
    ``ValueError`` naming the parameter — and it never touches the
    process-global kernel cache."""
    op = parameterized_operators(param("x"))[name]
    literal = parameterized_operators(Const(7))[name]
    before = kernel_stats()
    ctx = ExecutionContext(batch_size=batch_size)
    ctx.binds = {"x": 7}
    assert op.run(ctx) == literal.run(ExecutionContext(batch_size=batch_size))
    with pytest.raises(ValueError, match=":x"):
        op.run(ExecutionContext(batch_size=batch_size))
    wrong = ExecutionContext(batch_size=batch_size)
    wrong.binds = {"y": 7}
    with pytest.raises(ValueError, match=":x"):
        op.run(wrong)
    after = kernel_stats()
    assert after["kernels_compiled"] == before["kernels_compiled"]
    assert after["kernel_cache_hits"] == before["kernel_cache_hits"]


def test_unbound_parameter_still_raises_through_a_plan(catalog):
    session = QuerySession(catalog)
    prepared = session.prepare(template())
    with pytest.raises(ValueError, match=":hi"):
        prepared.plan.execute(catalog)
    with pytest.raises(ValueError, match=":hi"):
        BoundPlan(prepared.prepared, {}).execute(catalog)
    with pytest.raises(KeyError, match="hi"):
        prepared.bind()
    # ... and the shared tree is none the worse for it.
    assert prepared.execute(hi=50) == expected(catalog, 50)


# -- re-entrancy --------------------------------------------------------------------------
def test_four_threads_share_one_tree(catalog):
    """Four clients through one server execute the same template with
    their own binds; every result is checked against its own bind."""
    iterations, clients = 200, 4
    wanted = {hi: expected(catalog, hi) for hi in range(0, 101)}
    failures: list = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryServer(catalog, max_inflight=clients) as server:
            # One cold prepare up front: the clients then race on the
            # entry's first execution (its lowering), not on who
            # optimizes.
            QuerySession(catalog, cache=server.cache).prepare(template())

            def client(offset: int) -> None:
                try:
                    for i in range(iterations):
                        hi = (offset * 23 + i * 7) % 101
                        rows = server.execute(template(), timeout=60.0,
                                              hi=hi).rows
                        if rows != wanted[hi]:
                            failures.append((offset, i, hi))
                except BaseException as exc:  # reported by the assert below
                    failures.append((offset, exc))
                    raise

            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            stats = server.stats()
    finally:
        sys.setswitchinterval(old_interval)
    assert not failures, failures[:5]
    assert stats["completed"] == iterations * clients and not stats["failed"]
    # No dispatch session optimized: one cache entry, one tree for all.
    assert stats["optimizations"] == 0 and stats["cache_size"] == 1


def test_two_executions_of_one_tree_interleave(catalog):
    """Two generators over the same lowered tree, alive at once and
    advanced in turn: each yields its own bind's rows and charges its own
    context exactly what it would alone."""
    session = QuerySession(catalog)
    prepared = session.prepare(
        Query.table("t").where(col("v").lt(param("hi")))
        .compute(w=col("v") * param("scale"))
        .group_by(["k"], count_star("n"), AggSpec("sum", col("w"), "s")))
    tree = prepared.prepared.operator(catalog)
    binds = [{"hi": 90, "scale": 2}, {"hi": 35, "scale": 5}]

    def alone(values) -> tuple[list, dict]:
        ctx = ExecutionContext(catalog, batch_size=2)
        return BoundRoot(tree, values).run(ctx), ctx.tallies()

    solo = [alone(values) for values in binds]
    assert solo[0][0] != solo[1][0]
    contexts = [ExecutionContext(catalog, batch_size=2) for _ in binds]
    streams = [BoundRoot(tree, values).execute_batches(ctx)
               for values, ctx in zip(binds, contexts)]
    rows: list[list] = [[], []]
    live = [0, 1]
    while live:
        for i in list(live):
            batch = next(streams[i], None)
            if batch is None:
                live.remove(i)
            else:
                rows[i].extend(batch.rows)
    for i, (want_rows, want_tallies) in enumerate(solo):
        assert rows[i] == want_rows
        assert contexts[i].tallies() == want_tallies
    assert prepared.prepared.operator(catalog) is tree


def test_no_operator_keeps_execution_state_on_self():
    """The audit behind sharing a tree: outside ``__init__`` no engine
    operator assigns to an attribute of ``self``.  (``StreamSource``
    marks its *stream* consumed — it is one-shot by design, and the
    process backend never caches the tree it is grafted into.)"""
    offenders = []
    for name, cls in vars(repro.engine).items():
        if not (isinstance(cls, type) and issubclass(cls, Operator)):
            continue
        tree = ast.parse(inspect.getsource(sys.modules[cls.__module__]))
        (node,) = [n for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef) and n.name == cls.__name__]
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            for stmt in ast.walk(fn):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(
                               stmt, (ast.AugAssign, ast.AnnAssign)) else [])
                for target in targets:
                    if isinstance(target, ast.Attribute) and isinstance(
                            target.value, ast.Name) and target.value.id == "self":
                        offenders.append(f"{name}.{fn.name}: self.{target.attr}")
    assert not offenders, offenders
