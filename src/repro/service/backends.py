"""Pluggable execution backends for the :class:`QueryServer`.

A backend turns one executable plan — a prepared query's
:class:`~repro.engine.prepared.BoundPlan` (cached template + this
execution's parameter values) or a bare
:class:`~repro.optimizer.plans.PhysicalPlan` — into result rows.  Two
strategies:

* :class:`SerialBackend` — runs the plan's operator tree in-process
  (a bound plan's tree is lowered once per plan-cache entry and shared),
  on whichever thread holds the query's execution slot — the client's
  own, or a dispatch-pool thread.  Concurrency across queries comes from
  the server's ``max_inflight`` slots, but CPython's GIL serializes the
  CPU work.
* :class:`ProcessPoolBackend` — ships per-shard subplans to worker
  processes and gathers them through the order-preserving merge in the
  serving process (:mod:`repro.engine.subplan`).  This is the one
  backend that gives the sharded enforcers true multi-core parallelism
  beyond the GIL.  A plan with no exchange has no shard to run in
  parallel: while no other query is in flight on the backend and the
  pool's snapshot is current, it runs in the calling thread exactly as
  :class:`SerialBackend` runs it; otherwise it ships whole, as one task.

Every backend returns rows **bit-identical** to serial execution: shard
pipelines are cut only at exchange boundaries, workers run the exact
per-shard plans, and the serving-side gather performs the same stable
merge (ties to the lowest shard index) the local exchange would.

The process backend has one way back from a worker: every shipped task
— a shard pipeline or a whole plan — runs to completion and returns its
rows (one bytes payload, pickled without the pickler's memo by
:func:`~repro.engine.subplan.encode_rows`), tallies and span records as
its future's result, so the pool's result thread only copies bytes.
The serving side grafts each future under the re-assembled gather,
which decodes each payload when it first pulls it, and after the gather
folds every task's tallies in task order, waiting for any task a
``LIMIT`` left unread, so each shard's work is counted.  Workers keep a
warm LRU of 32 lowered subplans keyed by the task template's
fingerprint, so the plan-cache steady state (the same physical plan
served repeatedly, with whatever parameter values) skips lowering on
warm workers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Optional

from ..engine.context import ExecutionContext, collector_paused
from ..obs.trace import _NULL_SPAN, active_span, child_span
from ..engine.subplan import (
    assemble_tasks,
    execute_subplan,
    init_worker,
    shard_subplans,
)
from ..storage.catalog import Catalog
from ..storage.handoff import catalog_payload


class ExecutionBackend:
    """Interface: run one executable plan to completion.

    The plan runs under *ctx*'s settings (``params``, ``batch_size``,
    ``check_orders``, ``meter_timing``) wherever it runs — in the
    calling thread, in a pooled attempt's gather and in every shipped
    task — and *ctx* receives the execution's counter tallies (simulated
    I/O, comparisons, sort metrics); for the process backend these are
    the worker tallies folded in shard order, so totals match in-process
    execution's determinism.  Without a *ctx* the plan runs under a
    default :class:`~repro.engine.context.ExecutionContext`.

    ``parallelism`` selects nothing: the fan-out a plan was *prepared*
    for is already in the plan, and every backend runs the plan as
    given.  The argument stays in the signature only because the frozen
    ``benchmarks/e2e`` layer pass passes it.
    """

    name = "backend"

    def run_plan(self, plan, catalog: Catalog, parallelism: int = 1,
                 ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/processes; idempotent."""

    def describe(self) -> dict:
        """Configuration and counters for ``QueryServer.stats()``."""
        return {"backend": self.name}


class SerialBackend(ExecutionBackend):
    """In-process batched execution (the ``QuerySession.execute`` path)."""

    name = "serial"

    def run_plan(self, plan, catalog: Catalog, parallelism: int = 1,
                 ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        return _run_in_process(self.name, plan, catalog, ctx)


def _run_in_process(backend: str, plan, catalog: Catalog,
                    ctx: Optional[ExecutionContext]) -> list[tuple]:
    """Run *plan* on the calling thread: the serial backend's execution,
    and the process backend's for a whole plan on an idle backend."""
    ctx = ctx or ExecutionContext(catalog)
    # child_span is ambient: a no-op unless the caller is inside an
    # active trace (the server's execute span), so untraced paths pay
    # one ContextVar read.
    with child_span("local_execute", backend=backend) as span, collector_paused():
        rows = plan.execute(catalog, ctx)
        span.tag(rows=len(rows))
    return rows


class _PoolHandle:
    """One pool generation: executor + the catalog version it was built
    against.  Handles are immutable and swapped atomically under the
    backend lock, so a dispatch thread holding an old generation keeps a
    consistent pair even while a refresh installs the next one."""

    __slots__ = ("pool", "version")

    def __init__(self, pool: ProcessPoolExecutor, version) -> None:
        self.pool = pool
        self.version = version


class ProcessPoolBackend(ExecutionBackend):
    """Multi-core execution over a pool of worker processes.

    The pool is built once (eagerly, so all workers exist before the
    server's dispatch threads start) with each worker holding its own
    catalog copy from a :func:`~repro.storage.handoff.catalog_payload`
    snapshot.  Per query, the plan's maximal exchanges are cut into
    per-shard tasks (:func:`~repro.engine.subplan.shard_subplans`).

    Where a plan without exchanges runs is decided per execution, by
    one in-flight count: when no other query is in flight on this
    backend and the pool's snapshot is current (not :meth:`stale`, so a
    local run reads the rows a worker would), it runs in the calling
    thread through the serial backend's code — a worker would add
    pickling and dispatch and buy no parallelism.
    Otherwise it ships whole, as a single task, and the pool provides
    inter-query parallelism instead.  Sharded plans always ship.

    ``mp_context`` picks the multiprocessing start method; the default
    prefers ``fork`` (cheap worker startup, payload inherited by
    reference) and falls back to the platform default where ``fork`` is
    unavailable.  ``fork`` is only safe while the serving process is
    single-threaded, so it is used exclusively for the **eager initial
    build** (which the constructor performs, before the server's
    dispatch threads exist); any later rebuild — :meth:`refresh` after
    catalog row changes, or the automatic replacement of a broken pool
    — happens mid-traffic and therefore switches to ``spawn``, which
    never inherits another thread's held locks.  :meth:`stale` reports
    whether the catalog version moved since the pool was built.

    Rebuilds are **swap-under-lock**: the replacement pool is built and
    warmed first, the handle pointer is swapped atomically, and the old
    generation retires in the background once its in-flight work drains
    — a dispatch thread mid-submit on the old pool either finishes
    normally or observes a clean "cannot schedule new futures after
    shutdown" and retries on the new generation.  A broken pool's
    outstanding futures are cancelled *before* the rebuild so no
    dispatch thread waits on a future the dead pool will never complete.
    """

    name = "process"

    #: Transparent retries per query: once for a broken pool (rebuild),
    #: plus once more if the pool is swapped beneath a submit.
    MAX_RETRIES = 2

    def __init__(self, catalog: Catalog, workers: Optional[int] = None,
                 mp_context: Optional[str] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("pool_workers must be >= 1")
        self.catalog = catalog
        self.workers = workers or os.cpu_count() or 1
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else None
        self._mp_context = mp_context
        self._lock = threading.Lock()
        self._handle: Optional[_PoolHandle] = None
        self._forked_once = False
        #: Queries inside :meth:`run_plan` (under self._lock).
        self._in_flight = 0
        #: Counters (under self._lock), as :meth:`describe` reports them.
        self._telemetry = dict.fromkeys((
            "pool_rebuilds", "local_queries", "streamed_queries",
            "subplan_cache_hits", "subplan_cache_misses",
        ), 0)
        self._ensure_pool()

    # -- pool lifecycle ---------------------------------------------------------------
    def _build_context(self):
        """The start method for the next pool build: the configured one
        for the constructor-time build, never ``fork`` afterwards (a
        mid-traffic fork inherits whatever locks other threads hold)."""
        method = self._mp_context
        if method == "fork" and self._forked_once:
            method = "spawn"
        return multiprocessing.get_context(method) if method else None

    def _build_handle(self) -> _PoolHandle:
        """Build and warm a complete pool generation (no locks held —
        spawning workers is slow and must not block dispatch threads
        running on the current generation)."""
        payload = catalog_payload(self.catalog)
        pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._build_context(),
            initializer=init_worker, initargs=(payload,))
        try:
            # Touch every worker now, not at first traffic.
            list(pool.map(_noop, range(self.workers)))
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        if self._mp_context == "fork":
            self._forked_once = True
        return _PoolHandle(pool, payload.version_token)

    def _ensure_pool(self) -> _PoolHandle:
        with self._lock:
            if self._handle is not None:
                return self._handle
        return self._rebuild(replacing=None)

    def _rebuild(self, replacing: Optional[_PoolHandle]) -> _PoolHandle:
        """Install a fresh pool generation, replacing *replacing*.

        The expectation guard makes concurrent rebuild attempts idempotent:
        if another thread already swapped the handle (e.g. two dispatch
        threads both observed the same broken pool), the later builder
        discards its own pool and adopts the winner's.
        """
        fresh = self._build_handle()
        with self._lock:
            current = self._handle
            if current is not None and current is not replacing:
                # Lost the race: someone already installed a new
                # generation.  Retire ours without ever exposing it.
                stale, winner = fresh, current
            else:
                self._handle = fresh
                if replacing is not None:
                    self._telemetry["pool_rebuilds"] += 1
                stale, winner = replacing, fresh
        if stale is not None:
            _retire_handle_async(stale)
        return winner

    def stale(self) -> bool:
        """Whether the catalog changed since the workers were built."""
        with self._lock:
            handle = self._handle
        return self._snapshot_stale(handle)

    def _snapshot_stale(self, handle: Optional[_PoolHandle]) -> bool:
        """Whether *handle*'s workers hold an older catalog version."""
        return (handle is not None
                and handle.version != self.catalog.stats_version)

    def refresh(self) -> None:
        """Rebuild the pool against the current catalog contents.

        Safe under traffic: the new generation is built and warmed
        first, then swapped in; dispatch threads mid-flight on the old
        generation drain there (the old pool retires in the background),
        and a submit that races the swap retries on the new pool.
        """
        with self._lock:
            current = self._handle
        self._rebuild(replacing=current)

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.pool.shutdown(wait=True, cancel_futures=True)

    # -- execution -------------------------------------------------------------------
    def run_plan(self, plan, catalog: Catalog, parallelism: int = 1,
                 ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        occurrences, _ = shard_subplans(plan)
        # A worker buys an exchange-free plan nothing while no other
        # query is in flight; a current snapshot means both places read
        # the same rows.
        with self._lock:
            here = (not occurrences and not self._in_flight
                    and not self._snapshot_stale(self._handle))
            self._in_flight += 1
        try:
            if not here:
                return self._run_pooled(plan, catalog, ctx)
            rows = _run_in_process(self.name, plan, catalog, ctx)
            with self._lock:
                self._telemetry["local_queries"] += 1
            return rows
        finally:
            with self._lock:
                self._in_flight -= 1

    def _run_pooled(self, plan, catalog: Catalog,
                    ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        """Run *plan* on the pool, whatever else is in flight: its shard
        tasks, or the whole plan as one task."""
        # Tracing rides the ambient span (the server's execute span):
        # run_plan's signature stays trace-free for third-party
        # backends, and untraced queries pay one ContextVar read.
        parent = active_span()
        ctx = ctx or ExecutionContext(catalog)
        occurrences, tasks = shard_subplans(plan)
        attempts = 0
        while True:
            handle = self._ensure_pool()
            try:
                rows, local = self._run_tasks(
                    handle, plan, occurrences, tasks, catalog, ctx, parent,
                    attempts)
                break
            except BrokenExecutor:
                # A worker died (OOM, signal).  This attempt's futures
                # were already cancelled by the failing path; rebuild
                # once (spawn context — see _build_context) and retry,
                # so a transient casualty doesn't poison later queries.
                attempts += 1
                if attempts > self.MAX_RETRIES:
                    raise
                self._rebuild(replacing=handle)
            except RuntimeError as exc:
                # "cannot schedule new futures after shutdown": the pool
                # was swapped beneath us by a concurrent refresh.  The
                # new generation is already installed — just retry.
                if "shutdown" not in str(exc).lower():
                    raise
                attempts += 1
                if attempts > self.MAX_RETRIES:
                    raise
        if parent is not None and attempts:
            parent.tag(retries=attempts)
        ctx.absorb_tallies(local.tallies())
        return rows

    @staticmethod
    def _dispatch_span(parent, shard: int, attempt: int):
        """Open one shard's dispatch span (finished when its result —
        or failure — lands); returns ``(span, trace_ctx)`` or
        ``(None, None)`` untraced."""
        if parent is None:
            return None, None
        span = parent.trace.begin("shard_dispatch",
                                  parent_id=parent.span_id,
                                  shard=shard, attempt=attempt)
        return span, (parent.trace.trace_id, span.span_id)

    @staticmethod
    def _close_failed_spans(parent, spans, exc: BaseException) -> None:
        if parent is None:
            return
        for span in spans:
            if span is not None and span.end is None:
                span.tag(error=type(exc).__name__)
                parent.trace.finish(span)

    @staticmethod
    def _attach_worker_spans(parent, spans, results, done_at) -> None:
        """Finish the shard dispatch spans and graft each worker's span
        records under its own, placed where the worker ran: a shard that
        queued for a busy worker shows as queued, not as running beside
        the shards ahead of it.

        Worker clocks are not comparable with ours, so a worker's root
        span is placed to end when its future completed (*done_at*,
        stamped by a done-callback), and to start no earlier than its
        dispatch did.  A future can complete late: the pool's result
        thread needs the GIL while the worker already runs its next
        shard.  One process runs one task at a time, so a task also ends
        no later than the next task of the same worker process (its
        ``pid`` tag) began."""
        if parent is None:
            return
        placed = []
        for span, result, finished in zip(spans, results, done_at):
            parent.trace.finish(span)
            records = result[3]
            if not records:
                continue
            _, _, _, start, end, tags = next(r for r in records
                                             if r[1] == span.span_id)
            # A callback still running when the result was read stamps
            # no earlier than now.
            now = time.perf_counter()
            done = span.end - (now - (finished or now))
            floor = span.start - start
            placed.append((dict(tags)["pid"], max(done - end, floor), floor,
                           start, end, records))
        next_start: dict[int, float] = {}
        # Per process, its latest task first.
        for pid, base, floor, start, end, records in sorted(
                placed, key=lambda p: (p[0], p[1] + p[3]), reverse=True):
            if pid in next_start:
                base = max(floor, min(base, next_start[pid] - end))
            next_start[pid] = base + start
            parent.trace.attach(records, base_offset=base)

    def _run_tasks(self, handle: _PoolHandle, plan, occurrences, tasks,
                   catalog: Catalog, ctx: ExecutionContext, parent=None,
                   attempt: int = 0) -> tuple[list[tuple], ExecutionContext]:
        """Ship every task, gather the futures' rows through the
        re-assembled plan, then fold every task's tallies in task order.
        The gather and every task run under *ctx*'s settings; the
        tallies land in a context of this attempt's own, so a retried
        attempt's partial work is not counted.  A ``LIMIT`` may stop the
        gather before it read every task; the fold still waits for them
        all, so every shard's work counts."""
        futures = []
        spans = []
        done_at: list[Optional[float]] = [None] * len(tasks)
        try:
            for i, task in enumerate(tasks):
                span, trace_ctx = self._dispatch_span(parent, i, attempt)
                spans.append(span)
                future = handle.pool.submit(
                    execute_subplan, task, ctx.batch_size, ctx.check_orders,
                    ctx.meter_timing, trace_ctx, ctx.params)
                future.add_done_callback(_stamp_done(done_at, i))
                futures.append(future)

            root = assemble_tasks(plan, occurrences, futures, catalog)
            local = ExecutionContext(catalog, ctx.params,
                                     batch_size=ctx.batch_size,
                                     check_orders=ctx.check_orders,
                                     meter_timing=ctx.meter_timing)
            # The "merge" span covers the gather, its waits for the
            # shards included.  A whole-plan task merges nothing, so it
            # opens none.
            with (child_span("merge", shards=len(tasks)) if occurrences
                  else _NULL_SPAN) as merge_span:
                rows = root.run(local)
                merge_span.tag(rows=len(rows))
            results = [future.result() for future in futures]
        except BaseException as exc:
            for future in futures:
                future.cancel()
            self._close_failed_spans(parent, spans, exc)
            raise
        # After the merge's own charges; the sums are commutative, so
        # the fold order cannot change the totals.
        for _, tallies, _, _ in results:
            local.absorb_tallies(tallies)
        self._attach_worker_spans(parent, spans, results, done_at)
        hits = sum(1 for result in results if result[2])
        with self._lock:
            telemetry = self._telemetry
            telemetry["streamed_queries"] += 1
            telemetry["subplan_cache_hits"] += hits
            telemetry["subplan_cache_misses"] += len(results) - hits
        return rows, local

    def describe(self) -> dict:
        with self._lock:
            handle = self._handle
            out = {"backend": self.name, "pool_workers": self.workers,
                   **self._telemetry}
        out["pool_stale"] = self._snapshot_stale(handle)
        return out


def _stamp_done(done_at: list, i: int):
    """Done-callback recording when task *i*'s future completed."""
    def callback(_future) -> None:
        done_at[i] = time.perf_counter()
    return callback


def _retire_handle_async(handle: _PoolHandle) -> None:
    """Retire an old pool generation without blocking the swapper.

    In-flight futures on the old pool are allowed to drain (dispatch
    threads may still be waiting on them).  A broken pool's futures were
    cancelled by the failing ``run_plan`` before the rebuild, so
    retirement is prompt there too.
    """
    threading.Thread(target=handle.pool.shutdown,
                     kwargs={"wait": True, "cancel_futures": False},
                     daemon=True, name="pool-retirement").start()


def _noop(_: int) -> None:
    """Pool warm-up task (must be module-level for pickling)."""


def make_backend(kind, catalog: Catalog,
                 pool_workers: Optional[int] = None,
                 mp_context: Optional[str] = None) -> ExecutionBackend:
    """Resolve a backend spec: an instance passes through, a name
    (``"serial"`` / ``"process"``) is constructed."""
    if isinstance(kind, ExecutionBackend):
        return kind
    if kind == "serial":
        return SerialBackend()
    if kind == "process":
        return ProcessPoolBackend(catalog, workers=pool_workers,
                                  mp_context=mp_context)
    raise ValueError(f"unknown backend {kind!r}; "
                     "have 'serial', 'process'")
