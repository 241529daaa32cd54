"""Shard-subplan extraction and the process-pool worker entrypoint.

The process-pool backend (:mod:`repro.service.backends`) gives the
sharded enforcers true multi-core parallelism: the per-shard pipelines
the optimizer placed under a :class:`~repro.engine.exchange.MergeExchange`
(or :class:`~repro.engine.exchange.ExchangeUnion`) are shipped — as
picklable :class:`~repro.optimizer.plans.PhysicalPlan` subtrees — to
worker processes, executed there, and gathered back through the same
order-preserving merge in the serving process.  This module supplies the
pieces:

* :func:`exchange_occurrences` / :func:`shard_subplans` — find the
  *maximal* exchange nodes of a plan (exchanges not nested under another
  exchange) and cut their children out as independent worker tasks; a
  plan with no exchange is one whole-plan task;
* :func:`strip_plan` — drop optimizer-only payload (the ``logical``
  back-references candidate generation attaches) before pickling, so
  the shipped bytes carry only what lowering needs;
* :func:`execute_subplan_stream` — the worker entrypoint: lowers a task
  against the worker's catalog (installed once per pool by
  :func:`init_worker`) and pushes fixed-size row chunks onto the pool's
  shared results queue as they are produced, so the serving-side merge
  starts consuming the fastest shard while the slowest is still sorting;
* :class:`ShardStream` / :class:`StreamSource` — the serving-side
  receiving end: a thread-safe chunk buffer fed by the backend's queue
  router, wrapped as an operator so the exchange gather can merge live
  shard streams exactly as it would merge local children;
* :func:`assemble_streams` — rebuild the serving-side operator tree with
  each shipped child replaced by a :class:`StreamSource` over its live
  chunk stream (a whole-plan task's stream is the root itself), so the
  gather (stable k-way merge, ties to the lowest shard index) and
  everything above it runs locally and the result is **bit-identical**
  to single-process execution.

Workers also keep a small LRU of *lowered* subplans keyed by the task
template's pickled fingerprint: operators are plans, not live cursors
(they may be re-executed), and a pool's catalog snapshot is immutable
for the pool's lifetime, so a repeated query — the plan-cache steady
state — skips lowering and kernel lookup entirely on a warm worker.  A
prepared query's task (a :class:`~repro.engine.prepared.BoundPlan`) is
its template plus the parameter values: one subplan serves every value.

Determinism: tasks are generated in plan pre-order and, per exchange, in
shard order; the parent absorbs worker tallies in exactly that order, so
counters never depend on worker scheduling.  Lowering and re-assembly
both build a :class:`~repro.engine.exchange.MergeExchange` from the plan
node's ``disjoint`` arg (the planner's proof, which survives
:func:`strip_plan`), so the re-assembled gather concatenates heap-free
exactly where local execution does and comparison tallies stay
bit-identical across backends.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict, deque
from typing import Any, Iterator, Optional, Sequence

from ..obs.trace import _NULL_SPAN as _NULL_CM, Trace

from ..core.sort_order import EMPTY_ORDER
from .batch import RowBatch
from .context import ExecutionContext
from .exchange import ExchangeUnion, MergeExchange
from .iterators import Operator
from .lowering import meter_for, operators_from_plan
from .prepared import BoundPlan, BoundRoot, PreparedPlan

#: The gather operators whose children are independently executable
#: shard pipelines.
EXCHANGE_OPS = ("MergeExchange", "ExchangeUnion")


def exchange_occurrences(plan) -> list:
    """Maximal exchange nodes of *plan*, in pre-order.

    "Maximal" means not nested under another exchange: an exchange
    buried inside a shipped shard pipeline is executed by the worker
    that runs the pipeline.  The same (memoised) plan object appearing
    at two tree positions yields two occurrences — each is executed
    (and charged) separately, matching local execution.
    """
    out: list = []

    def visit(node) -> None:
        if node.op in EXCHANGE_OPS:
            out.append(node)
            return
        for child in node.children:
            visit(child)

    visit(plan)
    return out


#: Plan args that must never cross a process boundary: ``logical`` is an
#: optimizer-only back-reference; ``kernels`` holds compiled closures
#: (:class:`~repro.engine.kernels.OperatorKernels` refuses to pickle by
#: design — workers recompile against their own catalog snapshot and
#: keep warm per-process kernel caches instead).
_UNPICKLABLE_ARGS = ("logical", "kernels")


def strip_plan(plan):
    """A copy of *plan* without optimizer-only args (``logical``
    back-references into the logical tree) and without compiled kernel
    bundles (unpicklable by construction); lowering in the worker
    recompiles kernels through its process-global cache, and the pickled
    task shrinks accordingly."""
    from ..optimizer.plans import PhysicalPlan

    children = tuple(strip_plan(c) for c in plan.children)
    args = tuple((k, v) for k, v in plan.args if k not in _UNPICKLABLE_ARGS)
    if children == plan.children and args == plan.args:
        return plan
    return PhysicalPlan(plan.op, plan.schema, plan.order, plan.stats,
                        plan.self_cost, children, args)


def shard_subplans(plan) -> tuple[list, list[Any]]:
    """Cut *plan* into worker tasks.

    Returns ``(occurrences, tasks)``: the maximal exchange nodes and the
    flat task list — one stripped subplan per exchange child, ordered by
    occurrence then shard index.  A plan with no exchange at all becomes
    a single whole-plan task (``occurrences == []``): the pool then
    provides inter-query rather than intra-query parallelism.

    A :class:`~repro.engine.prepared.BoundPlan` is cut and stripped once
    per plan-cache entry; its tasks are those templates plus its binds.
    """
    if isinstance(plan, BoundPlan):
        prepared = plan.prepared
        if prepared.shards is None:
            occurrences, tasks = shard_subplans(prepared.plan)
            prepared.shards = occurrences, [
                PreparedPlan(task, prepared.param_names) for task in tasks]
        occurrences, templates = prepared.shards
        return occurrences, [BoundPlan(template, plan.binds)
                             for template in templates]
    occurrences = exchange_occurrences(plan)
    if not occurrences:
        return [], [strip_plan(plan)]
    tasks = [strip_plan(child)
             for node in occurrences for child in node.children]
    return occurrences, tasks


# -- serving side: live shard streams ----------------------------------------------------
class ShardStream:
    """Thread-safe chunk buffer for one in-flight shard.

    The backend's queue-router thread calls :meth:`put` for each row
    chunk a worker ships, :meth:`finish` when the worker's DONE sentinel
    (carrying its tallies) arrives, and :meth:`fail` when the worker's
    future errors or is cancelled.  The consuming merge iterates
    :meth:`batches`, blocking only when it has outrun the producer.

    The buffer is unbounded — a shard may finish long before the merge
    reaches it — but holds only what the consumer has not yet taken.
    """

    __slots__ = ("stream_id", "_chunks", "_done", "_error", "_result",
                 "_cond", "chunks_received", "_consumed")

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self._chunks: deque[list[tuple]] = deque()
        self._done = False
        self._error: Optional[BaseException] = None
        #: The DONE payload: ``(tallies, cache_hit)`` untraced,
        #: ``(tallies, cache_hit, span_records)`` when traced.
        self._result: Optional[tuple] = None
        self._cond = threading.Condition()
        self.chunks_received = 0
        self._consumed = False

    def put(self, chunk: list[tuple]) -> None:
        with self._cond:
            if self._done:
                return  # stale chunk after a failure: drop it
            self._chunks.append(chunk)
            self.chunks_received += 1
            self._cond.notify_all()

    def finish(self, result: tuple) -> None:
        with self._cond:
            if self._done:
                return
            self._result = result
            self._done = True
            self._cond.notify_all()

    def fail(self, error: BaseException) -> None:
        """Mark the stream broken; a no-op once finished (a worker that
        already delivered its DONE sentinel has nothing left to fail)."""
        with self._cond:
            if self._done:
                return
            self._error = error
            self._done = True
            self._cond.notify_all()

    def batches(self) -> Iterator[list[tuple]]:
        """Yield chunks in arrival order, blocking on the producer;
        raises the stream's failure as soon as it is observed.  Each
        chunk is handed over exactly once — the stream lets go of it, so
        a consumer that reduces rows frees them as it goes."""
        while True:
            with self._cond:
                while not self._chunks and not self._done:
                    self._cond.wait()
                if not self._chunks:
                    if self._error is not None:
                        raise self._error
                    return
                chunk = self._chunks.popleft()
            yield chunk

    @property
    def tallies(self) -> dict:
        """The worker's counter tallies (valid after a clean finish)."""
        if self._result is None:
            raise RuntimeError("shard stream has no tallies "
                               "(not finished, or failed)")
        return self._result[0]

    @property
    def cache_hit(self) -> bool:
        """Whether the worker served this task from its warm subplan
        cache (valid after a clean finish)."""
        if self._result is None:
            raise RuntimeError("shard stream has no result "
                               "(not finished, or failed)")
        return self._result[1]

    @property
    def spans(self) -> Optional[list]:
        """The worker's span records (valid after a clean finish);
        ``None`` for untraced tasks."""
        if self._result is None:
            raise RuntimeError("shard stream has no result "
                               "(not finished, or failed)")
        return self._result[2] if len(self._result) > 2 else None


class StreamSource(Operator):
    """Operator view of a :class:`ShardStream`, for grafting under the
    re-assembled exchange.

    Unlike every other operator, a StreamSource is **one-shot**: the
    underlying stream is consumed as it is read.  The process backend
    builds a fresh one per attempt and never caches the grafted tree, so
    the restriction never escapes; re-execution raises rather than
    silently returning an empty stream.
    """

    name = "StreamSource"

    def __init__(self, schema, stream: ShardStream,
                 output_order=EMPTY_ORDER) -> None:
        super().__init__(schema, output_order)
        self.stream = stream

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        if self.stream._consumed:
            raise RuntimeError("StreamSource is one-shot and was already "
                               "executed")
        self.stream._consumed = True
        for chunk in self.stream.batches():
            yield RowBatch(chunk)

    def details(self) -> str:
        return f"shard stream {self.stream.stream_id}"


def assemble_streams(plan, occurrences: Sequence[Any],
                     streams: Sequence[ShardStream], catalog) -> Operator:
    """Serving-side operator tree with the shipped tasks grafted back in.

    *streams* holds one live :class:`ShardStream` per task, in the order
    :func:`shard_subplans` cut them.  Each exchange is rebuilt over
    :class:`StreamSource` children declaring the exchange's merge order
    (their streams are sorted on it by construction — the workers ran
    the per-shard enforcers), so a ``MergeExchange`` performs the exact
    stable k-way merge it would have performed over local children, and
    ``check_orders`` execution still verifies every input; it just
    starts as soon as the first chunks land.  A whole-plan task
    (``occurrences == []``) has nothing to rebuild: its one stream is
    the root.  A :class:`~repro.engine.prepared.BoundPlan`'s tree is
    built fresh like any other and carries its binds.
    """
    if isinstance(plan, BoundPlan):
        return BoundRoot(assemble_streams(plan.plan, occurrences, streams,
                                          catalog), plan.binds)
    if not occurrences:
        (stream,) = streams
        return StreamSource(plan.schema, stream, plan.order)
    remaining = []
    cursor = 0
    for node in occurrences:
        width = len(node.children)
        remaining.append((node, streams[cursor:cursor + width]))
        cursor += width

    def replace(node) -> Optional[Operator]:
        for i, (occ, shard_streams) in enumerate(remaining):
            if occ is node:
                del remaining[i]
                if node.op == "MergeExchange":
                    children = [StreamSource(c.schema, stream, node.order)
                                for c, stream in zip(node.children,
                                                     shard_streams)]
                    exchange: Operator = MergeExchange(
                        children, node.order,
                        disjoint=node.arg("disjoint", False))
                else:
                    children = [StreamSource(c.schema, stream)
                                for c, stream in zip(node.children,
                                                     shard_streams)]
                    exchange = ExchangeUnion(children)
                exchange._meter = meter_for(node)
                return exchange
        return None

    root = operators_from_plan(plan, catalog, replace=replace)
    if remaining:  # pragma: no cover - defensive
        raise RuntimeError("assemble_streams: not every shipped exchange "
                           "was grafted")
    return root


# -- worker side -------------------------------------------------------------------------
#: Installed once per worker process by :func:`init_worker`.
_WORKER_CATALOG = None
#: The pool's shared results queue; ``None`` when the pool was built
#: without one — the worker entrypoint then refuses.
_WORKER_QUEUE = None
#: Warm cache of lowered subplans, keyed by task fingerprint.  Safe for
#: the pool's lifetime: the worker catalog is an immutable snapshot
#: (rebuilds spawn fresh workers), and operators are re-executable plans.
_SUBPLAN_CACHE: "OrderedDict[str, Operator]" = OrderedDict()
_SUBPLAN_CACHE_SIZE = 32


def init_worker(payload, results_queue=None, cache_size: int = 32) -> None:
    """Process-pool initializer: build this worker's catalog copy, adopt
    the pool's shared results queue, and size the
    warm subplan cache.  ``results_queue`` must arrive through the pool's
    ``initargs`` — multiprocessing queues only cross the boundary at
    process creation, never inside task pickles."""
    global _WORKER_CATALOG, _WORKER_QUEUE, _SUBPLAN_CACHE_SIZE
    from ..storage.handoff import build_catalog

    _WORKER_CATALOG = build_catalog(payload)
    _WORKER_QUEUE = results_queue
    _SUBPLAN_CACHE_SIZE = max(0, cache_size)
    _SUBPLAN_CACHE.clear()


def _lowered_cached(plan) -> tuple[Operator, bool]:
    """Lower *plan* against the worker catalog, through the warm cache.

    The key is a fingerprint of the pickled plan — value-based, so a
    re-shipped identical subplan hits whichever worker it lands on once
    that worker has seen it.  A prepared query's task is keyed on its
    template alone, so it hits for every bind value.  Returns
    ``(operator, was_hit)``.
    """
    if _SUBPLAN_CACHE_SIZE <= 0:
        return plan.to_operator(_WORKER_CATALOG), False
    key = hashlib.sha1(
        pickle.dumps(plan, pickle.HIGHEST_PROTOCOL)).hexdigest()
    op = _SUBPLAN_CACHE.get(key)
    if op is not None:
        _SUBPLAN_CACHE.move_to_end(key)
        return op, True
    op = plan.to_operator(_WORKER_CATALOG)
    _SUBPLAN_CACHE[key] = op
    while len(_SUBPLAN_CACHE) > _SUBPLAN_CACHE_SIZE:
        _SUBPLAN_CACHE.popitem(last=False)
    return op, False


def _require_worker_catalog() -> None:
    if _WORKER_CATALOG is None:
        raise RuntimeError("worker pool not initialized with a catalog "
                           "payload (init_worker was not run)")


def _worker_trace(trace_ctx: Optional[tuple]) -> tuple[Optional[Trace],
                                                       Optional[Any]]:
    """Build this task's worker-local trace from a shipped
    ``(trace_id, parent_span_id)`` pair.

    The worker's span ids carry the parent span id as a prefix
    (``"<parent>.<n>"``), so re-attached ids can never collide with the
    serving process's own; its root span's ``parent_id`` is the parent's
    dispatch span, which is what stitches the shipped records into the
    parent tree.  Offsets are worker-relative (epoch = trace creation,
    i.e. task start) — the parent rebases them on attach.
    """
    if trace_ctx is None:
        return None, None
    trace_id, parent_span_id = trace_ctx
    trace = Trace(trace_id, id_prefix=f"{parent_span_id}.")
    root = trace.begin("worker_execute", parent_id=parent_span_id,
                       pid=os.getpid())
    return trace, root


def execute_subplan_stream(plan, stream_id: int,
                           batch_size: Optional[int] = None,
                           check_orders: bool = False,
                           chunk_rows: int = 2048,
                           meter_timing: bool = False,
                           trace_ctx: Optional[tuple] = None) -> None:
    """Worker entrypoint: run one shipped task, shipping its rows chunk
    by chunk on the pool's shared results queue.

    Protocol (all items on the one queue, routed by ``stream_id``):

    * ``(stream_id, seq, rows)`` — the next chunk, ``seq`` increasing
      from 0; at most ``chunk_rows`` rows each;
    * ``(stream_id, -1, (tallies, cache_hit[, span_records]))`` — the
      DONE sentinel; the third element rides along exactly like the
      tallies when the task was traced (*trace_ctx* given).  Per-stream
      ordering is guaranteed because one worker produces the whole
      stream sequentially and queue feeds preserve per-process order.

    Errors are **not** sent on the queue: they propagate through the
    task future, whose done-callback fails the parent-side stream.
    """
    _require_worker_catalog()
    if _WORKER_QUEUE is None:
        raise RuntimeError("worker pool has no results queue; streaming "
                           "requires init_worker(..., results_queue=...)")
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    ctx = ExecutionContext(_WORKER_CATALOG, batch_size=batch_size,
                           check_orders=check_orders,
                           meter_timing=meter_timing)
    if isinstance(plan, BoundPlan):
        ctx.binds, plan = plan.binds, plan.plan
    trace, root = _worker_trace(trace_ctx)
    with (trace.span("lower", parent=root) if trace is not None
          else _NULL_CM) as lower_span:
        op, cache_hit = _lowered_cached(plan)
        lower_span.tag(cache_hit=cache_hit)
    run_span = trace.begin("run", parent_id=root.span_id) \
        if trace is not None else None
    seq = 0
    shipped = 0
    pending: list[tuple] = []
    for batch in op.execute_batches(ctx):
        pending.extend(batch.rows)
        while len(pending) >= chunk_rows:
            chunk = pending[:chunk_rows]
            _WORKER_QUEUE.put((stream_id, seq, chunk))
            shipped += len(chunk)
            del pending[:chunk_rows]
            seq += 1
    if pending:
        _WORKER_QUEUE.put((stream_id, seq, pending))
        shipped += len(pending)
    if trace is None:
        _WORKER_QUEUE.put((stream_id, -1, (ctx.tallies(), cache_hit)))
        return
    run_span.tag(rows=shipped, chunks=seq + (1 if pending else 0))
    trace.finish(run_span)
    trace.finish(root)
    _WORKER_QUEUE.put((stream_id, -1,
                       (ctx.tallies(), cache_hit, trace.to_records())))
