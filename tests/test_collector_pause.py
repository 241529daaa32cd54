"""Plan execution runs with the cyclic garbage collector paused.

``repro.engine.collector_paused`` wraps the serial execution of a plan
(``backends._run_in_process``: the serial backend, and the process
backend's in-process runs) and the pool worker's task entrypoint
(``subplan.execute_subplan``).  What must hold: the collector is
off inside, on again after a run and after a run that raises, still off
when the caller had turned it off, and on after overlapping queries on
several threads, whichever of them finishes first.
"""

from __future__ import annotations

import gc
import multiprocessing
import sys
import threading

import pytest

from repro.engine import Operator, RowBatch, collector_paused, subplan
from repro.expr.expressions import UnboundParamError
from repro.logical import Query
from repro.service import ProcessPoolBackend, QueryServer, QuerySession
from repro.service.backends import SerialBackend
from tests.test_server import serving_catalog, serving_queries


@pytest.fixture(scope="module")
def catalog():
    return serving_catalog()


@pytest.fixture
def collector_on():
    """Every test starts, and leaves the process, with the collector on."""
    gc.enable()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left the cyclic collector disabled"


class _Probe:
    """A plan stand-in: records the collector's state when it executes,
    calls *meet* (when given), then runs *plan*."""

    def __init__(self, plan, meet=None) -> None:
        self.plan, self.meet = plan, meet
        self.enabled_inside = None

    def execute(self, catalog, ctx):
        self.enabled_inside = gc.isenabled()
        if self.meet is not None:
            self.meet()
        return self.plan.execute(catalog, ctx)


def test_the_body_runs_with_the_collector_off(collector_on):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(ZeroDivisionError):
        with collector_paused():
            1 / 0
    assert gc.isenabled()


def test_a_run_pauses_and_then_restores(collector_on, catalog):
    plan = QuerySession(catalog).prepare(serving_queries()[0]).plan
    probe = _Probe(plan)
    rows = SerialBackend().run_plan(probe, catalog)
    assert rows == QuerySession(catalog).execute(serving_queries()[0])
    assert probe.enabled_inside is False
    assert gc.isenabled()


def test_a_run_that_raises_restores(collector_on, catalog):
    """An unbound ``Param`` raises inside execution, in the filter kernel."""
    template = QuerySession(catalog).prepare(serving_queries()[1]).plan
    probe = _Probe(template)
    with pytest.raises(UnboundParamError):
        SerialBackend().run_plan(probe, catalog)
    assert probe.enabled_inside is False
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_keeps_it_disabled(collector_on,
                                                                 catalog):
    gc.disable()
    try:
        with QueryServer(catalog) as server:
            assert server.execute(serving_queries()[0]).rows
            template = QuerySession(catalog).prepare(serving_queries()[1]).plan
            with pytest.raises(UnboundParamError):
                SerialBackend().run_plan(template, catalog)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("first_out", ["first_in", "second_in"])
def test_overlapping_runs_leave_the_collector_on(collector_on, catalog,
                                                 first_out):
    """The first run sees the collector on and the second sees it off.
    The first turns it back on when it finishes, and the second leaves it
    as it finds it: whichever finishes first, it is on after both."""
    plan = QuerySession(catalog).prepare(serving_queries()[0]).plan
    entered = [threading.Event() for _ in range(2)]
    release = [threading.Event() for _ in range(2)]

    def meet(i):
        entered[i].set()
        assert release[i].wait(timeout=10)

    probes = [_Probe(plan, lambda i=i: meet(i)) for i in range(2)]
    threads = [threading.Thread(target=SerialBackend().run_plan,
                                args=(probe, catalog)) for probe in probes]
    for i, thread in enumerate(threads):
        thread.start()
        assert entered[i].wait(timeout=10)
    for i in ([0, 1] if first_out == "first_in" else [1, 0]):
        release[i].set()
        threads[i].join(timeout=10)
        assert not threads[i].is_alive()
        assert gc.isenabled() == (i == 0 or not threads[0].is_alive())
    assert [p.enabled_inside for p in probes] == [False, False]
    assert gc.isenabled()


def test_many_threads_under_a_short_switch_interval_leave_it_on(collector_on):
    """Eight threads (more than cores) enter and leave the pause with a
    thread switch due at almost every bytecode, a hundred times over.
    Without one lock over "read the state, then disable" and over
    "enable", a thread can read the collector as off, lose the processor
    while the one that turned it off re-enables it, then disable it and
    leave it off."""
    def enter_and_leave():
        for _ in range(1000):
            with collector_paused():
                pass

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(100):
            threads = [threading.Thread(target=enter_and_leave)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert gc.isenabled(), round_
    finally:
        sys.setswitchinterval(switch)


class _MeetingBackend(SerialBackend):
    """Serial execution whose runs meet at a barrier inside the pause, so
    every round of queries overlaps."""

    def __init__(self, parties: int) -> None:
        self.barrier = threading.Barrier(parties, timeout=10)
        self.probes: list[_Probe] = []

    def run_plan(self, plan, catalog, *args, **kwargs):
        probe = _Probe(plan, self.barrier.wait)
        self.probes.append(probe)
        return super().run_plan(probe, catalog, *args, **kwargs)


def test_overlapping_server_threads_leave_the_collector_on(collector_on,
                                                           catalog):
    backend = _MeetingBackend(parties=2)
    query = serving_queries()[0]
    expected = QuerySession(catalog).execute(query)
    results: list = []
    with QueryServer(catalog, backend=backend, max_inflight=2) as server:
        def client():
            for _ in range(5):
                results.append(server.execute(query).rows)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    assert results == [expected] * 10
    assert [p.enabled_inside for p in backend.probes] == [False] * 10
    assert gc.isenabled()


class _CollectorProbe(Operator):
    """Emits one row holding the worker's collector state, or raises."""

    name = "CollectorProbe"

    def __init__(self, child, fail: bool) -> None:
        super().__init__(child.schema, [child])
        self.fail = fail

    def execute_batches(self, ctx):
        if self.fail:
            raise RuntimeError("probe failed on purpose")
        yield RowBatch([(gc.isenabled(),) * len(self.schema)])


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the probe is injected into workers through fork")
def test_a_pool_worker_pauses_each_task_and_then_restores(collector_on,
                                                          monkeypatch,
                                                          catalog):
    """``execute_subplan`` through the process backend: the task
    runs with the worker's collector off, and the worker's collector is
    on after a task, after a task that raises, and after a sharded
    query's shard tasks."""
    query = Query.table("t").order_by("b", "a", "c")
    session = QuerySession(catalog)
    whole = session.prepare(query).plan
    sharded = session.prepare(query, parallelism=4).plan
    assert subplan.shard_subplans(whole)[0] == []
    assert subplan.shard_subplans(sharded)[0]
    lower = subplan._lowered_cached
    # Forked workers inherit the patch: a whole-plan task whose stage is
    # ``fail`` runs the probe, raising or not; other tasks run as lowered.
    stage = multiprocessing.get_context("fork").Value("i", 0)

    def lowered(task):
        op, hit = lower(task)
        if stage.value:
            return _CollectorProbe(op, fail=stage.value == 2), hit
        return op, hit

    monkeypatch.setattr(subplan, "_lowered_cached", lowered)
    backend = ProcessPoolBackend(catalog, workers=1, mp_context="fork")
    monkeypatch.undo()
    try:
        pool = backend._ensure_pool().pool
        width = len(whole.schema)
        stage.value = 1
        assert backend._run_pooled(whole, catalog) == [(False,) * width]
        assert pool.submit(gc.isenabled).result(timeout=30)
        stage.value = 2
        with pytest.raises(RuntimeError, match="on purpose"):
            backend._run_pooled(whole, catalog)
        assert pool.submit(gc.isenabled).result(timeout=30)
        stage.value = 0
        assert backend.run_plan(sharded, catalog) == session.execute(query)
        assert pool.submit(gc.isenabled).result(timeout=30)
        assert backend.describe()["pool_rebuilds"] == 0
    finally:
        backend.close()
    assert gc.isenabled()
