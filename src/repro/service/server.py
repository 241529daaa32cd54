"""The concurrent query server: admission control, shared plan cache,
pluggable execution backends, cooperative backpressure.

:class:`QueryServer` is the process-level serving tier on top of the
:class:`~repro.service.session.QuerySession` facade.  Many concurrent
clients — asyncio tasks via :meth:`QueryServer.submit`, plain threads
via :meth:`QueryServer.execute` — pass one admission control and share
``max_inflight`` execution slots:

1. **Admission** — a submission is rejected immediately
   (:class:`QueryRejected`) when the wait queue already holds
   ``queue_limit`` admitted-but-not-running queries, when the caller's
   tenant is over its weighted-fair share of the pool under contention
   (``rejected_quota``), or when the execution circuit breaker is open
   (:class:`CircuitOpen`).  Every rejection carries a computed
   ``retry_after`` hint — the estimated seconds until capacity frees —
   which :class:`~repro.service.client.RetryingClient` honours.
2. **Planning** — each execution slot carries a private
   :class:`QuerySession` (sessions are single-threaded by design): a
   query runs only on a thread holding a slot, so a session is never
   used by two threads at once, and there are never more than
   ``max_inflight`` sessions however many client threads come and go.
   Every session shares one
   :class:`~repro.service.plan_cache.SharedPlanCache`: a plan optimized
   for any client serves all of them, still keyed by
   fingerprint × parallelism × referenced-table versions.
3. **Execution** — the bound plan (the cache entry's executable, shared
   by every slot, plus this query's parameter values) runs on
   the configured backend
   (:mod:`repro.service.backends`): in-process serial/threaded, or the
   **process pool**, which ships per-shard subplans to worker processes
   and streams their results back batch-at-a-time through the
   order-preserving merge.  Backend failures feed the
   :class:`~repro.service.metrics.CircuitBreaker`; after
   ``circuit_threshold`` consecutive failures the breaker opens and
   sheds load until a half-open probe succeeds.
4. **Where a query runs** — a thread client with no deadline (no
   ``timeout`` and no ``default_timeout``) that finds a slot free runs
   its query on its own thread: an idle server hands nothing to another
   thread.  Every other query — no slot free, a deadline to watch, or
   any :meth:`QueryServer.submit` (which must not block its event loop)
   — goes to the dispatch pool, whose threads take a slot before they
   run it.
5. **Deadlines** — ``timeout`` (per call or ``default_timeout``) covers
   queue wait + execution; an expired query raises
   :class:`QueryTimeout` and is counted.  A query whose slot never
   started is cancelled outright; one already running completes in the
   background (its slot is not reclaimable mid-plan) but its result is
   discarded and counted ``abandoned`` — never double-counted as
   ``completed`` after the client's ``timeout``.  Only the dispatch pool
   can stop waiting while a query runs, which is why a deadline always
   takes it.

Admission outcomes are **mutually exclusive** (see
:class:`~repro.service.metrics.QueryOutcome`), so at quiescence::

    submitted == completed + failed + timeouts
               + rejected_queue_full + rejected_quota + rejected_circuit

Observability: :meth:`QueryServer.stats` flattens the admission
counters, per-tenant counters, circuit-breaker state, latency quantiles
(p50/p95), worker utilization, shared-cache counters and the aggregated
per-session optimizer counters into one JSON-friendly dict — see
:mod:`repro.service.metrics`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from queue import Empty, SimpleQueue
from typing import Any, Mapping, Optional

from ..core.sort_order import SortOrder
from ..engine.context import ExecutionContext
from ..engine.kernels import kernel_stats
from ..obs import ObservabilityConfig
from ..obs.export import SlowQueryLog, json_snapshot, prometheus_text
from ..obs.trace import Trace, Tracer, child_span
from ..storage.catalog import Catalog
from .backends import ExecutionBackend, make_backend
from .metrics import (
    DEFAULT_TENANT,
    CircuitBreaker,
    QueryOutcome,
    ServerMetrics,
)
from .plan_cache import SharedPlanCache
from .session import QuerySession, SessionMetrics

__all__ = ["CircuitOpen", "QueryRejected", "QueryResult", "QueryServer",
           "QueryTimeout", "TracedResult"]


class QueryRejected(RuntimeError):
    """Admission control turned the query away.

    ``retry_after`` is the server's cooperative backpressure hint: the
    estimated seconds until capacity frees (queue drain time for a full
    queue, remaining open time for a tripped circuit).  ``reason`` is
    ``"queue_full"`` or ``"quota"`` (subclasses set their own).
    """

    def __init__(self, message: str, *, retry_after: float = 0.0,
                 reason: str = "queue_full") -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


class CircuitOpen(QueryRejected):
    """The execution circuit breaker is open — the backend is presumed
    down and the server sheds load instead of queueing onto it.  A
    subclass of :class:`QueryRejected` so clients treating rejections as
    retryable need no special case."""

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message, retry_after=retry_after, reason="circuit_open")


class QueryTimeout(TimeoutError):
    """The query missed its deadline (queue wait + execution)."""


@dataclass
class QueryResult:
    """One served query: rows plus serving metadata."""

    rows: list[tuple]
    from_cache: bool
    latency_seconds: float
    backend: str


@dataclass
class TracedResult(QueryResult):
    """A :class:`QueryResult` served with tracing on: carries the span
    tree and the per-operator meter snapshots, so callers can render an
    EXPLAIN ANALYZE without a second execution."""

    trace: Optional[Trace] = None
    plan: Any = None
    operator_rows: dict = field(default_factory=dict)
    operator_times: dict = field(default_factory=dict)

    def explain_analyze(self) -> Any:
        """The annotated plan tree (:class:`~repro.obs.analyze.ExplainAnalyze`)
        for this execution."""
        from ..obs.analyze import ExplainAnalyze
        return ExplainAnalyze(self.plan, self.operator_rows,
                              self.operator_times, self.latency_seconds,
                              len(self.rows))


class QueryServer:
    """Admission-controlled concurrent query serving over one catalog.

    Thread-safe and loop-agnostic: :meth:`submit` may be awaited from
    any running event loop and :meth:`execute` called from any thread —
    both share the same execution slots, admission counters and shared
    plan cache.

    ``tenant_weights`` maps tenant name → weight for the weighted-fair
    admission quota (unknown tenants weigh ``default_tenant_weight``);
    ``circuit_threshold`` / ``circuit_reset_timeout`` configure the
    execution circuit breaker (consecutive backend failures to open,
    seconds until the half-open probe).
    """

    def __init__(self, catalog: Catalog, *,
                 backend: Any = "serial",
                 parallelism: int = 1,
                 batch_size: Optional[int] = None,
                 max_inflight: int = 4,
                 queue_limit: int = 32,
                 default_timeout: Optional[float] = None,
                 cache_capacity: int = 256,
                 cache_ttl: Optional[float] = None,
                 strategy: Optional[str] = None,
                 config: Any = None,
                 pool_workers: Optional[int] = None,
                 mp_context: Optional[str] = None,
                 tenant_weights: Optional[Mapping[str, float]] = None,
                 default_tenant_weight: float = 1.0,
                 circuit_threshold: int = 5,
                 circuit_reset_timeout: float = 1.0,
                 feedback: Any = None,
                 obs: Any = None,
                 **overrides: Any) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if default_tenant_weight <= 0:
            raise ValueError("default_tenant_weight must be positive")
        if tenant_weights and any(w <= 0 for w in tenant_weights.values()):
            raise ValueError("tenant weights must be positive")
        self.catalog = catalog
        self.parallelism = parallelism
        self.batch_size = batch_size
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.default_timeout = default_timeout
        self.tenant_weights = dict(tenant_weights or {})
        self.default_tenant_weight = default_tenant_weight
        self.cache: SharedPlanCache = SharedPlanCache(
            cache_capacity, ttl_seconds=cache_ttl)
        #: The ``max_inflight`` execution slots.  A free slot is its
        #: session, waiting in :attr:`_free_slots`; a query runs only on a
        #: thread that took one — a client thread inline, or a dispatch
        #: thread — and gives it back when done, so ``in_flight <=
        #: max_inflight`` holds across both paths.  Made before the
        #: backend, so that a bad optimizer option starts no worker pool.
        self._sessions = [
            QuerySession(catalog, strategy, config, cache=self.cache,
                         feedback=feedback, **overrides)
            for _ in range(max_inflight)]
        self._free_slots: SimpleQueue[QuerySession] = SimpleQueue()
        for session in self._sessions:
            self._free_slots.put(session)
        self.backend: ExecutionBackend = make_backend(
            backend, catalog, pool_workers=pool_workers,
            mp_context=mp_context)
        self.metrics = ServerMetrics()
        self.breaker = CircuitBreaker(
            failure_threshold=circuit_threshold,
            reset_timeout=circuit_reset_timeout)
        #: Adaptive-statistics feedback (a
        #: :class:`~repro.service.feedback.FeedbackConfig`, or ``None``
        #: to disable): every slot's session shares it, so drift seen
        #: by any session invalidates the shared cache's stale plans.
        self.feedback = feedback
        #: Observability: ``obs=True`` enables the defaults, an
        #: :class:`~repro.obs.ObservabilityConfig` customizes them,
        #: ``None``/``False`` (the default) runs the exact pre-tracing
        #: code paths — no spans, no meter timing, no slow log.
        if obs is True:
            obs = ObservabilityConfig()
        self.obs: Optional[ObservabilityConfig] = obs or None
        if self.obs is not None:
            self.tracer: Optional[Tracer] = self.obs.tracer or Tracer()
            self.slow_log: Optional[SlowQueryLog] = SlowQueryLog(
                capacity=self.obs.slow_log_capacity,
                threshold_seconds=self.obs.slow_query_seconds)
        else:
            self.tracer = None
            self.slow_log = None
        self._dispatch = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve")
        self._closed = False

    # -- lifecycle --------------------------------------------------------------------
    def close(self) -> None:
        """Drain the dispatch pool, wait for the queries running on client
        threads, and release the backend; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._dispatch.shutdown(wait=True, cancel_futures=True)
        # Taking every slot waits out the inline queries.  The slots stay
        # taken, so a caller that raced past the _closed check finds none
        # and is refused by the shut-down pool.
        for _ in self._sessions:
            self._free_slots.get()
        self.backend.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission helpers -------------------------------------------------------------
    def _weight_of(self, tenant: str) -> float:
        return self.tenant_weights.get(tenant, self.default_tenant_weight)

    def _retry_after(self) -> float:
        return self.metrics.retry_after(self.max_inflight)

    # -- the query body, on the thread holding the slot --------------------------------
    def _run_admitted(self, session: QuerySession, outcome: QueryOutcome,
                      deadline: Optional[float], trace: Optional[Trace],
                      root, queue_span, query,
                      required_order: Optional[SortOrder],
                      parallelism: int, batch_size: Optional[int],
                      binds: dict[str, Any]) -> QueryResult:
        """Serve one admitted query with the *session* of the slot the
        calling thread holds; the arguments after it are what
        :meth:`_admit` returned."""
        self.metrics.start_execution(outcome)
        if trace is not None:
            # Begun at admission; taking the slot ends the wait.
            trace.finish(queue_span)
        started = time.perf_counter()
        disposition = "failed"
        breaker_recorded = False
        try:
            # activate(): re-establish the ambient span on *this* thread
            # so child_span calls in session/optimizer/backend code all
            # parent under the query's root span.
            with (trace.activate(root) if trace is not None
                  else nullcontext()):
                if deadline is not None and time.monotonic() >= deadline:
                    # Expired while queued: this is a timeout, not a backend
                    # failure — resolved here exactly once (the client's own
                    # wait path will find the outcome already claimed).
                    disposition = "timeout"
                    raise QueryTimeout("deadline expired while queued")
                prepared = session.prepare(query, required_order,
                                           parallelism=parallelism)
                with child_span("bind", params=len(binds)):
                    plan = prepared.bind(**binds)
                # With feedback or tracing on, collect the execution's
                # tallies (the process backend folds worker tallies into
                # the given ctx): feedback checks estimated-vs-actual
                # drift, tracing feeds EXPLAIN ANALYZE.  The ctx kwarg is
                # only passed when needed — pre-ctx third-party backends
                # keep working as long as both stay off.
                ctx = None
                run_kwargs: dict[str, Any] = {}
                if self.feedback is not None or trace is not None:
                    ctx = ExecutionContext(
                        self.catalog, batch_size=batch_size,
                        meter_timing=(trace is not None
                                      and self.obs.meter_timing))
                    run_kwargs["ctx"] = ctx
                try:
                    with child_span("execute",
                                    backend=self.backend.name) as espan:
                        rows = self.backend.run_plan(plan, self.catalog,
                                                     batch_size=batch_size,
                                                     **run_kwargs)
                        espan.tag(rows=len(rows))
                except Exception:
                    # Only backend execution trips the breaker — plan and
                    # bind errors above say nothing about backend health.
                    self.breaker.record_failure()
                    breaker_recorded = True
                    raise
                self.breaker.record_success()
                breaker_recorded = True
                # The server executes through the backend, not
                # PreparedQuery.execute — keep the session's execution
                # counter truthful for aggregated stats().
                session.metrics.executions += 1
                if ctx is not None:
                    session.observe_execution(prepared, ctx)
                disposition = "completed"
                elapsed = time.perf_counter() - started
                if self.slow_log is not None:
                    self.slow_log.observe(
                        fingerprint=prepared.fingerprint,
                        tenant=outcome.tenant,
                        latency_seconds=elapsed,
                        backend=self.backend.name, trace=trace)
                if trace is None:
                    return QueryResult(rows, prepared.from_cache, elapsed,
                                       self.backend.name)
                root.tag(disposition="completed",
                         cache_hit=prepared.from_cache)
                trace.finish(root)
                return TracedResult(
                    rows, prepared.from_cache, elapsed, self.backend.name,
                    trace=trace, plan=prepared.plan,
                    operator_rows={t: (c[0], c[1]) for t, c
                                   in ctx.operator_rows.items()},
                    operator_times={t: (c[0], c[1]) for t, c
                                    in ctx.operator_times.items()})
        finally:
            if trace is not None and root.end is None:
                # Failure/timeout paths: close the root with the
                # disposition so partial traces still render.
                root.tag(disposition=disposition)
                trace.finish(root)
            if not breaker_recorded:
                # The backend never saw this query (queued-deadline
                # expiry, plan/bind error): release any half-open probe
                # slot its admission reserved.
                self.breaker.abort_probe()
            self.metrics.finish_execution(time.perf_counter() - started,
                                          disposition, outcome)

    @staticmethod
    def _finish_rejected(trace, root, adm, reason: str) -> None:
        """Close a rejected submission's spans (the trace is discarded —
        the caller raises — but never left dangling open)."""
        if trace is None:
            return
        trace.finish(adm)
        root.tag(disposition=reason)
        trace.finish(root)

    def _admit(self, query, required_order, parallelism, batch_size, binds,
               timeout, tenant, trace) -> tuple[tuple, Optional[float]]:
        """Admission: raises the rejection, or returns ``(admitted,
        timeout)`` — *admitted* is what :meth:`_run_admitted` takes after
        the session, its outcome handle first."""
        if self._closed:
            raise RuntimeError("QueryServer is closed")
        tenant = tenant or DEFAULT_TENANT
        timeout = self.default_timeout if timeout is None else timeout
        parallelism = self.parallelism if parallelism is None else parallelism
        batch_size = self.batch_size if batch_size is None else batch_size
        # Per-call ``trace=`` overrides the config default; either way a
        # trace only exists when the server was built with ``obs=``.
        want_trace = (self.obs is not None and self.obs.trace_queries) \
            if trace is None else bool(trace)
        tr = self.tracer.start("query") \
            if want_trace and self.tracer is not None else None
        root = adm = None
        if tr is not None:
            root = tr.begin("query", tenant=tenant,
                            backend=self.backend.name,
                            parallelism=parallelism)
            adm = tr.begin("admission", parent_id=root.span_id)
        circuit_retry = self.breaker.check()
        if circuit_retry is not None:
            self.metrics.count_rejected_circuit(tenant)
            self._finish_rejected(tr, root, adm, "rejected_circuit")
            raise CircuitOpen(
                f"execution circuit open (backend failing); retry in "
                f"{circuit_retry:.2f}s", retry_after=circuit_retry)
        verdict, outcome = self.metrics.try_admit(
            self.queue_limit, tenant=tenant,
            capacity=self.max_inflight + self.queue_limit,
            weight_of=self._weight_of)
        if verdict != "admitted":
            # Release the half-open probe slot check() may have reserved
            # — this submission never reaches the backend.
            self.breaker.abort_probe()
            self._finish_rejected(tr, root, adm, f"rejected_{verdict}")
            if verdict == "queue_full":
                raise QueryRejected(
                    f"admission queue full ({self.queue_limit} waiting)",
                    retry_after=self._retry_after(), reason="queue_full")
            raise QueryRejected(
                f"tenant {tenant!r} over its fair-share admission quota",
                retry_after=self._retry_after(), reason="quota")
        queue_span = None
        if tr is not None:
            tr.finish(adm)
            # Begun here at admission, finished by whichever thread takes
            # a slot for the query — the gap IS the queue wait.
            queue_span = tr.begin("queue_wait", parent_id=root.span_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        return (outcome, deadline, tr, root, queue_span, query, required_order,
                parallelism, batch_size, binds), timeout

    def _run_in_slot(self, admitted: tuple) -> QueryResult:
        """A dispatch-pool task: wait for a slot, serve, give it back."""
        session = self._free_slots.get()
        try:
            return self._run_admitted(session, *admitted)
        finally:
            self._free_slots.put(session)

    def _dispatch_admitted(self, admitted: tuple) -> Future:
        """Hand an admitted query to the dispatch pool; returns its future."""
        outcome, _, tr, root, queue_span = admitted[:5]
        try:
            future = self._dispatch.submit(self._run_in_slot, admitted)
        except BaseException:
            # The dispatch pool refused the submission (shutdown race
            # past the _closed check): release the admission slot this
            # query holds, or `queued` inflates forever.
            self.metrics.abandon_queued(outcome)
            self.breaker.abort_probe()
            if tr is not None:
                tr.finish(queue_span)
                root.tag(disposition="failed")
                tr.finish(root)
            raise
        # A submission cancelled before its task started never reaches
        # _run_admitted; reclaim its queue slot (and any reserved probe)
        # here — the client wait path claims the outcome as its timeout.
        def _reclaim_cancelled(f) -> None:
            if f.cancelled():
                self.metrics.unqueue(outcome)
                self.breaker.abort_probe()
        future.add_done_callback(_reclaim_cancelled)
        return future

    # -- client APIs ------------------------------------------------------------------
    async def submit(self, query, required_order: Optional[SortOrder] = None,
                     *, parallelism: Optional[int] = None,
                     batch_size: Optional[int] = None,
                     timeout: Optional[float] = None,
                     tenant: Optional[str] = None,
                     trace: Optional[bool] = None,
                     **binds: Any) -> QueryResult:
        """Serve one query from an asyncio client.

        Raises :class:`QueryRejected` immediately when the wait queue is
        full (or the tenant is over quota, or the circuit is open —
        each with a ``retry_after`` hint), :class:`QueryTimeout` when
        the deadline passes first.  With tracing on (``obs=`` at server
        construction; per-call ``trace=`` overrides the configured
        default) the result is a :class:`TracedResult`.  The query always
        runs on the dispatch pool, so the event loop never blocks.
        """
        admitted, timeout = self._admit(
            query, required_order, parallelism, batch_size, binds, timeout,
            tenant, trace)
        wrapped = asyncio.wrap_future(self._dispatch_admitted(admitted))
        try:
            if timeout is None:
                return await wrapped
            return await asyncio.wait_for(wrapped, timeout)
        except (TimeoutError, QueryTimeout) as exc:
            self.metrics.count_timeout(admitted[0])
            raise QueryTimeout(str(exc) or "query deadline expired") from None

    def execute(self, query, required_order: Optional[SortOrder] = None,
                *, parallelism: Optional[int] = None,
                batch_size: Optional[int] = None,
                timeout: Optional[float] = None,
                tenant: Optional[str] = None,
                trace: Optional[bool] = None, **binds: Any) -> QueryResult:
        """Serve one query from a plain (non-async) thread client.

        With no deadline and a slot free the query runs on the calling
        thread; otherwise it waits for a slot on the dispatch pool, which
        lets the call raise :class:`QueryTimeout` at its deadline while
        the query itself runs on.
        """
        admitted, timeout = self._admit(
            query, required_order, parallelism, batch_size, binds, timeout,
            tenant, trace)
        if timeout is None:
            try:
                session = self._free_slots.get_nowait()
            except Empty:
                pass
            else:
                try:
                    return self._run_admitted(session, *admitted)
                finally:
                    self._free_slots.put(session)
        future = self._dispatch_admitted(admitted)
        try:
            return future.result(timeout)
        except (TimeoutError, QueryTimeout) as exc:
            future.cancel()
            self.metrics.count_timeout(admitted[0])
            raise QueryTimeout(str(exc) or "query deadline expired") from None

    # -- observability -----------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Flat serving metrics: admission, latency, utilization, shared
        cache, per-tenant counters, circuit-breaker state, aggregated
        session/optimizer counters, backend config."""
        out: dict[str, Any] = dict(self.metrics.as_dict(self.max_inflight))
        out.update(self.breaker.as_dict())
        out.update(self.backend.describe())
        out["max_inflight_limit"] = self.max_inflight
        out["queue_limit"] = self.queue_limit
        out["parallelism"] = self.parallelism
        out["tenants"] = self.metrics.tenants_dict()
        out["sessions"] = len(self._sessions)
        totals = SessionMetrics()
        for session in self._sessions:
            for f in fields(SessionMetrics):
                setattr(totals, f.name, getattr(totals, f.name)
                        + getattr(session.metrics, f.name))
        for f in fields(SessionMetrics):
            out[f.name] = getattr(totals, f.name)
        out["cache_size"] = len(self.cache)
        out["cache_capacity"] = self.cache.capacity
        out["cache_ttl_seconds"] = self.cache.ttl_seconds
        for name, value in self.cache.stats.as_dict().items():
            out[f"cache_{name}"] = value
        # Process-global kernel/columnar telemetry — taken once from the
        # shared caches, NOT summed per session (sessions all read the
        # same process-wide counters; summing would multiply them).
        out.update(kernel_stats())
        if self.tracer is not None:
            out["traces_started"] = self.tracer.traces_started
        if self.slow_log is not None:
            out["slow_queries_recorded"] = self.slow_log.recorded
            out["slow_queries_retained"] = len(self.slow_log)
        return out

    def metrics_text(self) -> str:
        """:meth:`stats` rendered as a Prometheus-style exposition page
        (see :func:`repro.obs.export.prometheus_text`)."""
        return prometheus_text(self.stats())

    def snapshot(self, indent: Optional[int] = None) -> str:
        """:meth:`stats` as a stable, versioned JSON document."""
        return json_snapshot(self.stats(), indent=indent)

    def slow_queries(self) -> list[dict]:
        """The slow-query ring buffer, oldest first (empty without
        ``obs=``)."""
        return self.slow_log.entries() if self.slow_log is not None else []
