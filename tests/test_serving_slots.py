"""Where a served query runs, and the slots that bound it.

``QueryServer`` has ``max_inflight`` execution slots, each carrying one
``QuerySession``.  A thread client with no deadline that finds a slot
free runs its query on its own thread; every other query — no slot
free, a deadline, or any ``submit()`` — waits for a slot on the
dispatch pool.  These tests pin which path a call takes, that deadlines
and ``close()`` keep their meaning on both, that no outcome leaks a
slot, and — under a stress mix of short-lived threads, asyncio clients
and deadline'd callers — that both paths together never run more than
``max_inflight`` queries, never make more than ``max_inflight``
sessions, and never hand one session to two threads at once.

CI runs this module a second time under ``python -X dev -W
error::ResourceWarning``.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.logical import Query
from repro.service import (
    CircuitOpen,
    ExecutionBackend,
    QueryRejected,
    QueryServer,
    QuerySession,
    QueryTimeout,
)
from tests.test_server import (
    reconciles,
    serving_catalog,
    serving_queries,
    wait_quiescent,
)

QUERY = Query.table("t").order_by("a")
JOIN_SECONDS = 30.0


@pytest.fixture(scope="module")
def catalog():
    return serving_catalog(num_rows=600, seed=4)


class _GateBackend(ExecutionBackend):
    """Records the thread of every execution; parks executions while
    ``open`` is clear and raises while ``failing`` is set."""

    name = "gate"

    def __init__(self) -> None:
        self.open = threading.Event()
        self.open.set()
        self.failing = False
        self.callers: list[int] = []
        self.events: list[str] = []
        self.parked = 0
        self._changed = threading.Condition()

    def run_plan(self, plan, catalog, parallelism=1, batch_size=None,
                 check_orders=False, ctx=None):
        with self._changed:
            self.callers.append(threading.get_ident())
            if self.failing:
                raise RuntimeError("injected backend failure")
            self.parked += 1
            self._changed.notify_all()
        try:
            if not self.open.wait(timeout=JOIN_SECONDS):
                raise RuntimeError("the test never opened the gate")
        finally:
            with self._changed:
                self.parked -= 1
        self.events.append("ran")
        return [("done",)]

    def wait_parked(self, n: int) -> None:
        with self._changed:
            assert self._changed.wait_for(lambda: self.parked >= n,
                                          timeout=10.0), self.parked

    def close(self) -> None:
        self.events.append("closed")


def _spawn(target, *args, **kwargs) -> tuple[threading.Thread, list]:
    """Start *target* on a thread; the list receives its result or the
    exception it raised."""
    out: list = []

    def body() -> None:
        try:
            out.append(target(*args, **kwargs))
        except BaseException as exc:  # inspected by the caller
            out.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    return thread, out


def _join(*threads: threading.Thread) -> None:
    for thread in threads:
        thread.join(timeout=JOIN_SECONDS)
    assert not any(thread.is_alive() for thread in threads)


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


# -- which path a call takes ---------------------------------------------------------------
def test_idle_execute_runs_on_the_calling_thread(catalog, monkeypatch):
    """No deadline and a free slot: no pool submission, and the backend
    runs on the caller's thread.  A deadline — per call or the server's
    default — and every ``submit()`` still take the pool."""
    submitted: list = []
    real_submit = ThreadPoolExecutor.submit

    def counting_submit(pool, fn, *args, **kwargs):
        submitted.append(fn)
        return real_submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    me = threading.get_ident()
    backend = _GateBackend()
    with QueryServer(catalog, backend=backend, max_inflight=2) as server:
        for _ in range(3):
            assert server.execute(QUERY).rows == [("done",)]
        assert submitted == [] and backend.callers == [me] * 3

        assert server.execute(QUERY, timeout=30.0).rows == [("done",)]
        assert len(submitted) == 1 and backend.callers[-1] != me

        async def one():
            return await server.submit(QUERY)

        assert asyncio.run(one()).rows == [("done",)]
        assert len(submitted) == 2 and backend.callers[-1] != me
        assert server.stats()["completed"] == 5

    backend = _GateBackend()
    with QueryServer(catalog, backend=backend,
                     default_timeout=30.0) as server:
        assert server.execute(QUERY).rows == [("done",)]
        assert len(submitted) == 3
        assert len(backend.callers) == 1 and backend.callers[0] != me


def test_busy_slots_send_a_no_deadline_call_to_the_pool(catalog):
    """With every slot held, a no-deadline ``execute`` waits for one on
    the dispatch pool and is counted queued until it gets it."""
    backend = _GateBackend()
    backend.open.clear()
    with QueryServer(catalog, backend=backend, max_inflight=1) as server:
        holder, held = _spawn(server.execute, QUERY)
        backend.wait_parked(1)
        waiter, waited = _spawn(server.execute, QUERY)
        _wait_for(lambda: server.stats()["queue_depth"] == 1)
        assert server.stats()["in_flight"] == 1
        backend.open.set()
        _join(holder, waiter)
        assert [r.rows for r in held + waited] == [[("done",)]] * 2
        assert backend.callers[0] == holder.ident
        assert backend.callers[1] not in (holder.ident, waiter.ident)
        stats = wait_quiescent(server)
        assert stats["completed"] == 2 and stats["max_in_flight"] == 1


def test_parked_query_past_its_deadline_times_out_promptly(catalog):
    """The pool path keeps the deadline: the caller gets QueryTimeout at
    the deadline while the query runs on, and its late result is counted
    ``abandoned`` — not ``completed``."""
    backend = _GateBackend()
    backend.open.clear()
    with QueryServer(catalog, backend=backend, max_inflight=1) as server:
        started = time.monotonic()
        with pytest.raises(QueryTimeout):
            server.execute(QUERY, timeout=0.05)
        assert time.monotonic() - started < 2.0
        backend.wait_parked(1)  # the query itself runs on
        backend.open.set()
        stats = wait_quiescent(server)
    assert stats["timeouts"] == 1 and stats["abandoned"] == 1
    assert stats["completed"] == 0 and stats["failed"] == 0
    assert reconciles(stats)


# -- close() -----------------------------------------------------------------------------
def test_close_waits_for_an_inline_query(catalog):
    """``close()`` from another thread returns only after the query
    parked on a client thread completed, and releases the backend after
    it — the query is counted ``completed``, not ``failed``."""
    backend = _GateBackend()
    backend.open.clear()
    server = QueryServer(catalog, backend=backend, max_inflight=2)
    client, result = _spawn(server.execute, QUERY)
    backend.wait_parked(1)
    closer, _ = _spawn(server.close)
    closer.join(timeout=0.2)
    assert closer.is_alive()
    backend.open.set()
    _join(client, closer)
    assert [r.rows for r in result] == [[("done",)]]
    assert backend.events == ["ran", "closed"]
    stats = server.stats()
    assert stats["completed"] == 1 and stats["failed"] == 0


def test_execute_after_close_raises_and_holds_no_slot(catalog):
    server = QueryServer(catalog, max_inflight=2)
    server.close()
    with pytest.raises(RuntimeError, match="closed"):
        server.execute(QUERY)
    assert server.stats()["submitted"] == 0
    # A caller that raced past the closed check finds every slot taken by
    # close() and is refused by the shut-down pool; its admission is
    # released and counted, not leaked.
    server._closed = False
    try:
        with pytest.raises(RuntimeError, match="shutdown"):
            server.execute(QUERY)
    finally:
        server._closed = True
    stats = server.stats()
    assert stats["queue_depth"] == 0 and stats["in_flight"] == 0
    assert stats["failed"] == 1 and reconciles(stats)


# -- no outcome leaks a slot -------------------------------------------------------------
def test_rejected_and_failed_inline_calls_free_every_slot(catalog):
    """Four times ``max_inflight`` no-deadline calls that fail (a plan
    error in prepare, the backend raising) or are rejected (circuit
    open, queue full) leave every slot free: ``max_inflight`` concurrent
    blocking queries all start afterwards."""
    slots = 2
    backend = _GateBackend()
    with QueryServer(catalog, backend=backend, max_inflight=slots,
                     queue_limit=1, circuit_threshold=slots,
                     circuit_reset_timeout=0.05) as server:
        for _ in range(slots):
            with pytest.raises(KeyError, match="no table"):
                server.execute(Query.table("nope").order_by("a"))
        backend.failing = True
        for _ in range(slots):
            with pytest.raises(RuntimeError, match="injected"):
                server.execute(QUERY)
        for _ in range(slots):
            with pytest.raises(CircuitOpen):
                server.execute(QUERY)
        backend.failing = False
        time.sleep(0.06)
        assert server.execute(QUERY).rows == [("done",)]  # closes it again

        backend.open.clear()
        holders = [_spawn(server.execute, QUERY) for _ in range(slots)]
        backend.wait_parked(slots)
        waiter = _spawn(server.execute, QUERY)
        _wait_for(lambda: server.stats()["queue_depth"] == 1)
        for _ in range(slots):
            with pytest.raises(QueryRejected) as rejected:
                server.execute(QUERY)
            assert rejected.value.reason == "queue_full"
        backend.open.set()
        _join(*(thread for thread, _ in holders + [waiter]))

        backend.open.clear()
        blocking = [_spawn(server.execute, QUERY) for _ in range(slots)]
        backend.wait_parked(slots)
        assert server.stats()["in_flight"] == slots
        backend.open.set()
        _join(*(thread for thread, _ in blocking))
        assert all(out[0].rows == [("done",)]
                   for _, out in holders + [waiter] + blocking)
        stats = wait_quiescent(server)
    assert stats["failed"] == 2 * slots
    assert stats["rejected_circuit"] == slots
    assert stats["rejected_queue_full"] == slots
    assert stats["completed"] == 1 + 2 * slots + 1
    assert reconciles(stats)


# -- the stress test ---------------------------------------------------------------------
def test_shared_slots_under_mixed_clients(catalog):
    """Waves of short-lived thread clients (more alive at once than there
    are cores), asyncio ``submit()`` clients and deadline'd ``execute``
    callers drive one server.  Every result matches its reference, no
    more than ``max_inflight`` queries ever run and no more than
    ``max_inflight`` sessions exist, no session is used by two threads
    at once, and the six-bucket reconciliation holds."""
    slots = 3
    queries = serving_queries()
    binds = [{}, {"lim": 30}, {}]
    reference = QuerySession(catalog)
    references = [reference.execute(q, **b) for q, b in zip(queries, binds)]
    threads_per_wave = max(8, 4 * (os.cpu_count() or 1))
    waves, calls_per_thread = 6, 4
    mismatches: list = []
    errors: list = []
    overlaps: list = []
    owner: dict[int, int] = {}
    owner_lock = threading.Lock()
    served = {"ok": 0, "timeouts": 0}
    served_lock = threading.Lock()

    def check(pick: int, result, label: str) -> None:
        if result.rows != references[pick]:
            mismatches.append(label)
        with served_lock:
            served["ok"] += 1

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with QueryServer(catalog, backend="serial", max_inflight=slots,
                         queue_limit=4096) as server:
            run_admitted = server._run_admitted

            def probed(session, *admitted):
                me = threading.get_ident()
                with owner_lock:
                    if id(session) in owner:
                        overlaps.append((owner[id(session)], me))
                    owner[id(session)] = me
                try:
                    return run_admitted(session, *admitted)
                finally:
                    with owner_lock:
                        owner.pop(id(session), None)

            server._run_admitted = probed
            for session in server._sessions:
                def prepare(*args, _session=session,
                            _prepare=session.prepare, **kwargs):
                    if owner.get(id(_session)) != threading.get_ident():
                        overlaps.append(("prepare outside its slot",))
                    return _prepare(*args, **kwargs)
                session.prepare = prepare

            def thread_client(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    for n in range(calls_per_thread):
                        pick = rng.randrange(3)
                        check(pick, server.execute(queries[pick],
                                                   **binds[pick]),
                              f"thread{seed}/{n}")
                except BaseException as exc:
                    errors.append(exc)

            def deadline_client(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    for n in range(12):
                        pick = rng.randrange(3)
                        tight = n % 4 == 3
                        try:
                            result = server.execute(
                                queries[pick], timeout=1e-4 if tight else 30.0,
                                **binds[pick])
                        except QueryTimeout:
                            with served_lock:
                                served["timeouts"] += 1
                            continue
                        check(pick, result, f"deadline{seed}/{n}")
                except BaseException as exc:
                    errors.append(exc)

            async def async_client(seed: int) -> None:
                rng = random.Random(seed)
                for n in range(6):
                    pick = rng.randrange(3)
                    check(pick, await server.submit(queries[pick],
                                                    **binds[pick]),
                          f"async{seed}/{n}")

            async def async_clients() -> None:
                await asyncio.gather(*[async_client(1000 + i)
                                       for i in range(6)])

            def run_async() -> None:
                try:
                    asyncio.run(async_clients())
                except BaseException as exc:
                    errors.append(exc)

            background = [threading.Thread(target=run_async)] + [
                threading.Thread(target=deadline_client, args=(2000 + i,))
                for i in range(3)]
            for thread in background:
                thread.start()
            for wave in range(waves):
                clients = [threading.Thread(target=thread_client,
                                            args=(wave * 100 + i,))
                           for i in range(threads_per_wave)]
                for thread in clients:
                    thread.start()
                _join(*clients)
            _join(*background)
            stats = wait_quiescent(server)
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == [] and mismatches == [] and overlaps == []
    assert stats["max_in_flight"] <= slots
    assert stats["sessions"] <= slots
    # A result that lands as its caller's deadline passes is counted
    # completed while the caller raises QueryTimeout; nothing else moves
    # a call between the two buckets.
    assert stats["completed"] >= served["ok"]
    assert stats["completed"] + stats["timeouts"] \
        == served["ok"] + served["timeouts"]
    assert stats["failed"] == 0
    assert reconciles(stats)
