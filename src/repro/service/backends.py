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
* :class:`ProcessPoolBackend` — ships per-shard subplans (or the whole
  plan, when it has no exchange) to worker processes and gathers them
  through the order-preserving merge in the serving process
  (:mod:`repro.engine.subplan`).  This is the one backend that gives the
  sharded enforcers true multi-core parallelism beyond the GIL.

Every backend returns rows **bit-identical** to serial execution: shard
pipelines are cut only at exchange boundaries, workers run the exact
per-shard plans, and the serving-side gather performs the same stable
merge (ties to the lowest shard index) the local exchange would.

The process backend has one transfer path: every task — a shard
pipeline or a whole plan — ships its rows back chunk by chunk on a
shared results queue, so the serving-side merge starts on the fastest
shard's first chunk while the slowest shard is still sorting, and
unpickling overlaps with worker execution.  Workers keep a warm LRU of
lowered subplans keyed by the task template's fingerprint, so the
plan-cache steady state (the same physical plan served repeatedly, with
whatever parameter values) skips lowering on warm workers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, CancelledError, ProcessPoolExecutor
from typing import Optional

from ..engine.context import ExecutionContext
from ..obs.trace import _NULL_SPAN, active_span, child_span
from ..engine.subplan import (
    ShardStream,
    assemble_streams,
    execute_subplan_stream,
    init_worker,
    shard_subplans,
)
from ..storage.catalog import Catalog
from ..storage.handoff import catalog_payload


class ExecutionBackend:
    """Interface: run one executable plan to completion.

    *ctx*, when supplied, receives the execution's counter tallies
    (simulated I/O, comparisons, sort metrics) — for the process
    backend these are the worker tallies folded in shard order, so
    totals match in-process execution's determinism.

    ``parallelism`` selects nothing: the fan-out a plan was *prepared*
    for is already in the plan, and every backend runs the plan as
    given.  The argument stays in the signature only because the frozen
    ``benchmarks/e2e`` layer pass passes it.
    """

    name = "backend"

    def run_plan(self, plan, catalog: Catalog, parallelism: int = 1,
                 batch_size: Optional[int] = None,
                 check_orders: bool = False,
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
                 batch_size: Optional[int] = None,
                 check_orders: bool = False,
                 ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        ctx = ctx or ExecutionContext(catalog, batch_size=batch_size,
                                      check_orders=check_orders)
        # child_span is ambient: a no-op unless the caller is inside an
        # active trace (the server's execute span), so untraced paths
        # pay one ContextVar read.
        with child_span("local_execute", backend=self.name) as span:
            rows = plan.execute(catalog, ctx)
            span.tag(rows=len(rows))
        return rows


class _StreamRouter:
    """Owns one pool's shared results queue and fans chunks out to the
    per-shard :class:`ShardStream` buffers.

    One daemon thread per pool generation: items are ``(stream_id, seq,
    payload)`` tuples (see
    :func:`~repro.engine.subplan.execute_subplan_stream`); unknown
    stream ids — chunks from an attempt that was cancelled or failed —
    are dropped on the floor.  A queue-level failure (e.g. a worker
    killed mid-pickle corrupting the pipe) fails every registered stream
    so no consumer blocks forever.
    """

    def __init__(self, queue) -> None:
        self.queue = queue
        self._streams: dict[int, ShardStream] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="shard-stream-router")
        self._thread.start()

    def register(self) -> ShardStream:
        with self._lock:
            stream = ShardStream(self._next_id)
            self._streams[stream.stream_id] = stream
            self._next_id += 1
            return stream

    def unregister(self, stream_id: int) -> None:
        with self._lock:
            self._streams.pop(stream_id, None)

    def _run(self) -> None:
        while True:
            try:
                item = self.queue.get()
            except (EOFError, OSError, ValueError) as exc:
                self._fail_all(exc)
                return
            if item is None:  # stop sentinel from stop()
                self._fail_all(RuntimeError("stream router stopped"))
                return
            stream_id, seq, payload = item
            with self._lock:
                stream = self._streams.get(stream_id)
            if stream is None:
                continue  # stale chunk from a cancelled/failed attempt
            if seq == -1:
                stream.finish(payload)
                self.unregister(stream_id)
            else:
                stream.put(payload)

    def _fail_all(self, exc: BaseException) -> None:
        with self._lock:
            streams, self._streams = list(self._streams.values()), {}
        for stream in streams:
            stream.fail(exc)

    def stop(self) -> None:
        """Post the stop sentinel (drained FIFO, so items already queued
        are still routed first) and join the router thread."""
        try:
            self.queue.put(None)
        except (OSError, ValueError):  # queue already torn down
            pass
        self._thread.join(timeout=5.0)


class _PoolHandle:
    """One pool generation: executor + results queue + router + the
    catalog version it was built against.  Handles are immutable and
    swapped atomically under the backend lock, so a dispatch thread
    holding an old generation keeps a consistent (pool, queue, router)
    triple even while a refresh installs the next one."""

    __slots__ = ("pool", "queue", "router", "version")

    def __init__(self, pool: ProcessPoolExecutor, queue, router: _StreamRouter,
                 version) -> None:
        self.pool = pool
        self.queue = queue
        self.router = router
        self.version = version


class ProcessPoolBackend(ExecutionBackend):
    """Multi-core execution over a pool of worker processes.

    The pool is built once (eagerly, so all workers exist before the
    server's dispatch threads start) with each worker holding its own
    catalog copy from a :func:`~repro.storage.handoff.catalog_payload`
    snapshot.  Per query, the plan's maximal exchanges are cut into
    per-shard tasks (:func:`~repro.engine.subplan.shard_subplans`);
    plans without exchanges ship whole — the pool then provides
    inter-query parallelism instead.

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
                 mp_context: Optional[str] = None,
                 chunk_rows: int = 2048) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.catalog = catalog
        self.workers = workers or os.cpu_count() or 1
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else None
        self._mp_context = mp_context
        self.chunk_rows = chunk_rows
        self._lock = threading.Lock()
        self._handle: Optional[_PoolHandle] = None
        self._forked_once = False
        # Telemetry (under self._lock).
        self._rebuilds = 0
        self._streamed_chunks = 0
        self._streamed_queries = 0
        self._cache_hits = 0
        self._cache_misses = 0
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
        context = self._build_context()
        queue = (context or multiprocessing).Queue()
        pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context,
            initializer=init_worker, initargs=(payload, queue))
        try:
            # Touch every worker now, not at first traffic.
            list(pool.map(_noop, range(self.workers)))
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        router = _StreamRouter(queue)
        if self._mp_context == "fork":
            self._forked_once = True
        return _PoolHandle(pool, queue, router, payload.version_token)

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
                    self._rebuilds += 1
                stale, winner = replacing, fresh
        if stale is not None:
            _retire_handle_async(stale)
        return winner

    def stale(self) -> bool:
        """Whether the catalog changed since the workers were built."""
        with self._lock:
            handle = self._handle
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
            handle.router.stop()

    # -- execution -------------------------------------------------------------------
    def run_plan(self, plan, catalog: Catalog, parallelism: int = 1,
                 batch_size: Optional[int] = None,
                 check_orders: bool = False,
                 ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        # Tracing rides the ambient span (the server's execute span):
        # run_plan's signature stays trace-free for third-party
        # backends, and untraced queries pay one ContextVar read.
        parent = active_span()
        meter_timing = ctx is not None and ctx.meter_timing
        occurrences, tasks = shard_subplans(plan)
        attempts = 0
        while True:
            handle = self._ensure_pool()
            try:
                rows, local = self._run_streaming(
                    handle, plan, occurrences, tasks, catalog,
                    batch_size, check_orders, parent, meter_timing,
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
        if ctx is not None:
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
    def _attach_worker_spans(parent, span, records) -> None:
        """Finish one shard's dispatch span and graft the worker's span
        records under it, rebased onto the dispatch span's start (worker
        clocks are not comparable with ours)."""
        if span is None:
            return
        parent.trace.finish(span)
        if records:
            parent.trace.attach(records, base_offset=span.start)

    def _run_streaming(self, handle: _PoolHandle, plan, occurrences, tasks,
                       catalog: Catalog, batch_size, check_orders,
                       parent=None, meter_timing: bool = False,
                       attempt: int = 0
                       ) -> tuple[list[tuple], ExecutionContext]:
        """Chunked transfer: the gather consumes live task streams.

        Stream ids are unique per attempt (the router hands them out),
        so chunks from a failed attempt still in the queue can never
        corrupt a retry's buffers — the router drops unknown ids.
        """
        streams: list[ShardStream] = []
        futures = []
        spans = []
        try:
            for i, task in enumerate(tasks):
                stream = handle.router.register()
                span, trace_ctx = self._dispatch_span(parent, i, attempt)
                spans.append(span)
                future = handle.pool.submit(
                    execute_subplan_stream, task, stream.stream_id,
                    batch_size, check_orders, self.chunk_rows,
                    meter_timing, trace_ctx)
                future.add_done_callback(_stream_failer(stream))
                streams.append(stream)
                futures.append(future)

            root = assemble_streams(plan, occurrences, streams, catalog)
            local = ExecutionContext(catalog, batch_size=batch_size,
                                     check_orders=check_orders,
                                     meter_timing=meter_timing)
            # The "merge" span overlaps worker execution by design — it
            # covers first-chunk to last-row of the gather.  A whole-plan
            # task merges nothing, so it opens none.
            with (child_span("merge", shards=len(tasks)) if occurrences
                  else _NULL_SPAN) as merge_span:
                rows = root.run(local)
                merge_span.tag(rows=len(rows))
        except BaseException as exc:
            for future in futures:
                future.cancel()
            for stream in streams:
                handle.router.unregister(stream.stream_id)
            self._close_failed_spans(parent, spans, exc)
            raise
        # The merge consumed every stream to its DONE sentinel, so the
        # worker tallies are in hand; fold them in task order, after the
        # merge's own charges — the sums are commutative, so the fold
        # order cannot change the totals.
        for stream, span in zip(streams, spans):
            local.absorb_tallies(stream.tallies)
            self._attach_worker_spans(parent, span, stream.spans)
        with self._lock:
            self._streamed_queries += 1
            self._streamed_chunks += sum(s.chunks_received for s in streams)
            hits = sum(1 for s in streams if s.cache_hit)
            self._cache_hits += hits
            self._cache_misses += len(streams) - hits
        return rows, local

    def describe(self) -> dict:
        with self._lock:
            handle = self._handle
            out = {
                "backend": self.name,
                "pool_workers": self.workers,
                "chunk_rows": self.chunk_rows,
                "pool_rebuilds": self._rebuilds,
                "streamed_queries": self._streamed_queries,
                "streamed_chunks": self._streamed_chunks,
                "subplan_cache_hits": self._cache_hits,
                "subplan_cache_misses": self._cache_misses,
            }
        out["pool_stale"] = (handle is not None
                             and handle.version != self.catalog.stats_version)
        return out


def _stream_failer(stream: ShardStream):
    """Done-callback failing *stream* when its producing task cannot
    deliver the DONE sentinel (error or cancellation); a no-op for tasks
    that finished cleanly (the sentinel already closed the stream)."""
    def callback(future) -> None:
        if future.cancelled():
            stream.fail(CancelledError("shard task cancelled"))
            return
        exc = future.exception()
        if exc is not None:
            stream.fail(exc)
    return callback


def _retire_handle_async(handle: _PoolHandle) -> None:
    """Retire an old pool generation without blocking the swapper.

    In-flight futures on the old pool are allowed to drain (dispatch
    threads may still be waiting on them); the router stops only after
    ``shutdown(wait=True)`` returns, i.e. after every worker exited — so
    queries on the old generation route to completion first.
    A broken pool's futures were cancelled by the failing ``run_plan``
    before the rebuild, so retirement is prompt there too.
    """
    def retire() -> None:
        handle.pool.shutdown(wait=True, cancel_futures=False)
        handle.router.stop()

    threading.Thread(target=retire, daemon=True,
                     name="pool-retirement").start()


def _noop(_: int) -> None:
    """Pool warm-up task (must be module-level for pickling)."""


def make_backend(kind, catalog: Catalog,
                 pool_workers: Optional[int] = None,
                 mp_context: Optional[str] = None,
                 chunk_rows: int = 2048) -> ExecutionBackend:
    """Resolve a backend spec: an instance passes through, a name
    (``"serial"`` / ``"process"``) is constructed."""
    if isinstance(kind, ExecutionBackend):
        return kind
    if kind == "serial":
        return SerialBackend()
    if kind == "process":
        return ProcessPoolBackend(catalog, workers=pool_workers,
                                  mp_context=mp_context,
                                  chunk_rows=chunk_rows)
    raise ValueError(f"unknown backend {kind!r}; "
                     "have 'serial', 'process'")
