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
  back-references candidate generation attaches, and every statistic
  but a node's schema and row estimate) before pickling, so the shipped
  bytes carry only what lowering needs;
* :func:`execute_subplan` — the worker entrypoint: lowers a task
  against the worker's catalog (installed once per pool by
  :func:`init_worker`), runs it to completion and returns its rows —
  encoded by :func:`encode_rows` as one bytes payload — with its
  tallies and span records, which reach the serving process as the
  task future's result;
* :func:`assemble_tasks` — rebuild the serving-side operator tree with
  each shipped child replaced by a :class:`TaskSource` over its task's
  future (a whole-plan task's source is the root itself), so the
  gather (stable k-way merge, ties to the lowest shard index) and
  everything above it runs locally and the result is **bit-identical**
  to single-process execution.

Rows travel as one payload per task: :func:`encode_rows` pickles the row
list at the highest protocol with the pickler's memo off (result rows
rarely share objects, so the memo would record every row tuple for
nothing), and :func:`decode_rows` unpickles it inside the gather, when
the :class:`TaskSource` is first pulled.  The pool's result thread then
only copies bytes; the decoding is charged to the serving process's
``merge`` span, beside the merge it feeds.

Workers also keep an LRU of 32 *lowered* subplans keyed by the task
template's pickled fingerprint: operators are plans, not live cursors
(they may be re-executed), and a pool's catalog snapshot is immutable
for the pool's lifetime, so a repeated query — the plan-cache steady
state — skips lowering and kernel lookup entirely on a warm worker.  A
prepared query's task (a :class:`~repro.engine.prepared.BoundPlan`) is
its template plus the parameter values: one subplan serves every value.

Determinism: tasks are generated in plan pre-order and, per exchange, in
shard order; the parent absorbs worker tallies in exactly that order,
once every task's future has completed (also when a ``LIMIT`` stopped
the gather early), so counters never depend on worker scheduling.
Re-assembly lowers each gather through the same
:func:`~repro.engine.lowering.lower_node` as local execution, from the
plan node's merge order and ``disjoint`` arg (the planner's proof, which
survives :func:`strip_plan`), so the re-assembled gather concatenates
heap-free exactly where local execution does and comparison tallies
stay bit-identical across backends.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from collections import OrderedDict
from typing import Any, Iterator, Optional, Sequence

from ..obs.trace import _NULL_SPAN as _NULL_CM, Trace
from ..storage.catalog import SystemParameters
from ..storage.statistics import StatsView

from .batch import RowBatch, batches_of
from .context import ExecutionContext, collector_paused
from .iterators import Operator
from .lowering import LOWERINGS, lower_node, operators_from_plan
from .prepared import BoundPlan, BoundRoot, PreparedPlan

#: The gather operators, lowered over a list of children: each child is
#: an independently executable shard pipeline.
EXCHANGE_OPS = frozenset(op for op, row in LOWERINGS.items()
                         if "children" in row.args)


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
#: optimizer-only back-reference into the logical tree.
_UNPICKLABLE_ARGS = ("logical",)


def strip_plan(plan):
    """A copy of *plan* as a worker needs it: without optimizer-only args
    (``logical`` back-references into the logical tree), and each node's
    statistics cut to its schema and row estimate ``N``, the one
    statistic lowering reads (an operator meter's estimate), so the
    pickled task shrinks accordingly; lowering in the worker compiles
    kernels through its process-global cache."""
    return plan._replace(
        children=tuple(map(strip_plan, plan.children)),
        args=tuple((k, v) for k, v in plan.args if k not in _UNPICKLABLE_ARGS),
        stats=StatsView(plan.schema, plan.stats.num_rows, {}))


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


# -- the rows' transport ----------------------------------------------------------------
def encode_rows(rows: list) -> bytes:
    """*rows* as one pickle payload, written without the pickler's memo:
    result rows rarely share objects, so memoising every row tuple and
    value costs time and bytes and saves little.  An object that appears
    in several rows is written out each time and decodes as equal
    copies, not as one object."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(rows)
    return buffer.getvalue()


def decode_rows(payload: bytes) -> list:
    """The row list :func:`encode_rows` encoded."""
    return pickle.loads(payload)


# -- serving side: shipped task results ------------------------------------------------
class TaskSource(Operator):
    """The rows of one shipped task, grafted under the re-assembled
    exchange: its execution waits for the task's future, decodes the
    payload the worker returned (:func:`decode_rows`) and yields its
    rows in ``ctx.batch_size`` batches.

    Reading a future does not consume it, so a TaskSource re-executes
    like every other operator."""

    def __init__(self, schema, future) -> None:
        super().__init__(schema)
        self.future = future

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        yield from batches_of(decode_rows(self.future.result()[0]),
                              ctx.batch_size)


def assemble_tasks(plan, occurrences: Sequence[Any],
                   futures: Sequence[Any], catalog) -> Operator:
    """Serving-side operator tree with the shipped tasks grafted back in.

    *futures* holds one future per task, in the order
    :func:`shard_subplans` cut them; each resolves to the tuple
    :func:`execute_subplan` returns.  Each exchange is lowered by
    :func:`~repro.engine.lowering.lower_node`, as local execution lowers
    it, over :class:`TaskSource` children (their rows are sorted on its
    merge order by construction — the workers ran the per-shard
    enforcers), so a ``MergeExchange`` performs the exact
    stable k-way merge it would have performed over local children, and
    ``check_orders`` execution still verifies every input.  A whole-plan
    task (``occurrences == []``) has nothing to rebuild: its one source
    is the root.  A :class:`~repro.engine.prepared.BoundPlan`'s tree is
    built fresh like any other and carries its binds.
    """
    if isinstance(plan, BoundPlan):
        return BoundRoot(assemble_tasks(plan.plan, occurrences, futures,
                                        catalog), plan.binds)
    if not occurrences:
        (future,) = futures
        return TaskSource(plan.schema, future)
    shipped = iter(futures)

    def graft(node) -> Optional[Operator]:
        # Visited in pre-order, nothing below a grafted exchange: the
        # exchanges grafted are the occurrences, in the tasks' order.
        if node.op not in EXCHANGE_OPS:
            return None
        return lower_node(node, [TaskSource(c.schema, next(shipped))
                                 for c in node.children], catalog)

    return operators_from_plan(plan, catalog, replace=graft)


# -- worker side -------------------------------------------------------------------------
#: Installed once per worker process by :func:`init_worker`.
_WORKER_CATALOG = None
#: Warm cache of lowered subplans, keyed by task fingerprint.  Safe for
#: the pool's lifetime: the worker catalog is an immutable snapshot
#: (rebuilds spawn fresh workers), and operators are re-executable plans.
_SUBPLAN_CACHE: "OrderedDict[str, Operator]" = OrderedDict()
_SUBPLAN_CACHE_SIZE = 32


def init_worker(payload) -> None:
    """Process-pool initializer: build this worker's catalog copy."""
    global _WORKER_CATALOG
    from ..storage.handoff import build_catalog

    _WORKER_CATALOG = build_catalog(payload)
    _SUBPLAN_CACHE.clear()


def _lowered_cached(plan) -> tuple[Operator, bool]:
    """Lower *plan* against the worker catalog, through the warm cache.

    The key is a fingerprint of the pickled plan — value-based, so a
    re-shipped identical subplan hits whichever worker it lands on once
    that worker has seen it.  A prepared query's task is keyed on its
    template alone, so it hits for every bind value.  Returns
    ``(operator, was_hit)``.
    """
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


def execute_subplan(plan, batch_size: Optional[int] = None,
                    check_orders: bool = False,
                    meter_timing: bool = False,
                    trace_ctx: Optional[tuple] = None,
                    params: Optional[SystemParameters] = None) -> tuple:
    """Worker entrypoint: run one shipped task to completion.

    Returns ``(payload, tallies, cache_hit, span_records)``, which
    reaches the serving process as the task future's result: *payload*
    is the task's rows as :func:`encode_rows` encodes them, decoded by
    the :class:`TaskSource` that reads them; ``span_records`` is
    ``None`` unless the task was traced (*trace_ctx* given).  Errors
    propagate through the future too.  The task runs with the cyclic
    collector paused (:class:`collector_paused`).
    """
    _require_worker_catalog()
    with collector_paused():
        ctx = ExecutionContext(_WORKER_CATALOG, params, batch_size=batch_size,
                               check_orders=check_orders,
                               meter_timing=meter_timing)
        if isinstance(plan, BoundPlan):
            ctx.binds, plan = plan.binds, plan.plan
        trace, root = _worker_trace(trace_ctx)
        with (trace.span("lower", parent=root) if trace is not None
              else _NULL_CM) as lower_span:
            op, cache_hit = _lowered_cached(plan)
            lower_span.tag(cache_hit=cache_hit)
        if trace is None:
            return encode_rows(op.run(ctx)), ctx.tallies(), cache_hit, None
        with trace.span("run", parent=root) as run_span:
            rows = op.run(ctx)
            run_span.tag(rows=len(rows))
        payload = encode_rows(rows)
        trace.finish(root)
        return payload, ctx.tallies(), cache_hit, trace.to_records()
