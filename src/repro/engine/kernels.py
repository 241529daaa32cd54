"""Compiled expression kernels: process-global cache + per-plan bundles.

Expression compilation (:meth:`Expression.compile` /
:meth:`Expression.compile_batch`) is cheap but not free.  A cached plan
is lowered once (:mod:`repro.engine.prepared`) and operators compile at
construction, so a warm execution compiles nothing for an expression
without parameters.  Two layers keep the compilations that do happen —
fresh plans, re-prepares, pool workers — from repeating:

* :data:`KERNELS` — a process-global LRU cache keyed by
  ``(kind, expression, schema column names)``.  Expressions are frozen
  dataclasses (hashable, structurally equal), so any operator compiled
  against the same schema anywhere in the process reuses the closure.
  Unhashable expressions (a ``Const`` holding a list, say) are compiled
  uncached.  No key ever contains a bind value: the cache holds
  templates only.
* :func:`attach_plan_kernels` — called once at *prepare* time
  (``QuerySession.prepare``), it walks an optimized plan and attaches an
  :class:`OperatorKernels` bundle to every expression-bearing node as a
  ``"kernels"`` plan arg.  Lowering hands the bundle to the operator
  constructor, so lowering a re-prepared plan does not even pay the
  cache lookup.  Nodes whose expressions contain
  :class:`~repro.expr.expressions.Param` placeholders are skipped.

An operator whose expressions hold parameters specialises them on the
execution's values when its ``execute_batches`` starts
(:func:`bound_kernels`) — a ``Col op Const`` column loop like any
literal's — and lets the closures go with the execution.

Bundles close over Python functions and are deliberately **not
picklable**: :func:`repro.engine.subplan.strip_plan` drops the
``"kernels"`` arg before shipping subplans to process-pool workers, and
each worker recompiles against its own catalog snapshot through its own
process-global :data:`KERNELS` — once per plan template, whatever the
values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Mapping, Optional, Sequence

from ..expr.expressions import (
    Expression,
    UnboundParamError,
    bind_expression,
)
from .batch import columnar_batches_total, reset_columnar_batches


class OperatorKernels:
    """Compiled row/batch callables for one plan node's expressions.

    ``row_fns[i]`` / ``batch_fns[i]`` are the two compiled forms of the
    node's *i*-th expression (a Filter has one, a Compute one per output,
    an aggregate one per ``AggSpec``).  Bundles compare by identity and
    refuse to pickle — ``strip_plan`` must drop them first.
    """

    __slots__ = ("row_fns", "batch_fns")

    def __init__(self, row_fns: Sequence, batch_fns: Sequence) -> None:
        self.row_fns = tuple(row_fns)
        self.batch_fns = tuple(batch_fns)

    def __reduce__(self):
        raise TypeError(
            "OperatorKernels holds compiled closures and cannot be pickled; "
            "strip_plan() drops the 'kernels' plan arg before worker handoff")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OperatorKernels({len(self.row_fns)} expressions)"


class KernelCache:
    """Thread-safe process-global LRU of compiled expression kernels."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._cache: OrderedDict = OrderedDict()
        self.kernels_compiled = 0
        self.kernel_cache_hits = 0

    def row_fn(self, expr: Expression, schema):
        """The compiled row function of *expr* against *schema*."""
        return self._get("row", expr, schema)

    def batch_fn(self, expr: Expression, schema):
        """The compiled whole-column kernel of *expr* against *schema*."""
        return self._get("batch", expr, schema)

    def _get(self, kind: str, expr: Expression, schema):
        try:
            key = (kind, expr, tuple(schema.names))
            hash(key)
        except TypeError:
            key = None  # unhashable payload (e.g. Const([...])) → uncached
        if key is not None:
            with self._lock:
                fn = self._cache.get(key)
                if fn is not None:
                    self._cache.move_to_end(key)
                    self.kernel_cache_hits += 1
                    return fn
        # Compile outside the lock; UnboundParamError propagates uncounted.
        fn = expr.compile(schema) if kind == "row" else expr.compile_batch(schema)
        with self._lock:
            self.kernels_compiled += 1
            if key is not None:
                self._cache[key] = fn
                if len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)
        return fn

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.kernels_compiled = 0
            self.kernel_cache_hits = 0


#: The process-global kernel cache (one per serving process / pool worker).
KERNELS = KernelCache()


def kernel_stats() -> dict[str, int]:
    """Kernel telemetry counters, flat and picklable.

    Process-global (not per-session): surfaced once by
    ``QuerySession.stats()`` and ``QueryServer.stats()``.
    """
    return {
        "kernels_compiled": KERNELS.kernels_compiled,
        "kernel_cache_hits": KERNELS.kernel_cache_hits,
        "columnar_batches": columnar_batches_total(),
    }


def reset_kernel_stats() -> None:
    """Zero the kernel counters (tests and benchmarks)."""
    KERNELS.reset_stats()
    reset_columnar_batches()


def compile_kernels(exprs: Sequence[Expression], schema,
                    provided: Optional[OperatorKernels] = None):
    """``(row_fns, batch_fns)`` for *exprs*, or ``(None, None)`` when
    they hold parameters.

    Operators call this from their constructors: a plan-attached bundle
    short-circuits everything; otherwise the global cache supplies (and
    remembers) the closures.  On ``(None, None)`` the operator defers to
    execute time (:func:`bound_kernels`).
    """
    exprs = tuple(exprs)
    if provided is not None and len(provided.row_fns) == len(exprs):
        return provided.row_fns, provided.batch_fns
    try:
        row_fns = tuple(KERNELS.row_fn(e, schema) for e in exprs)
        batch_fns = tuple(KERNELS.batch_fn(e, schema) for e in exprs)
    except UnboundParamError:
        return None, None
    return row_fns, batch_fns


def bound_kernels(exprs: Sequence[Expression], schema,
                  binds: Mapping[str, Any]):
    """``(row_fns, batch_fns)`` of parameterized *exprs* for one
    execution's *binds*.

    Compiled directly, never through :data:`KERNELS`: a value-keyed
    entry would be used once and push a template out of the LRU.  A
    parameter left unbound raises the seed engine's ``ValueError``
    (:class:`~repro.expr.expressions.UnboundParamError`) naming it.
    """
    bound = [bind_expression(e, binds) for e in exprs]
    return (tuple([e.compile(schema) for e in bound]),
            tuple([e.compile_batch(schema) for e in bound]))


def _node_expressions(plan):
    """The (expressions, input schema) an op's kernels compile against."""
    if plan.op == "Filter":
        return (plan.arg("predicate"),), plan.children[0].schema
    if plan.op == "Compute":
        return tuple(e for _, e in plan.arg("outputs", ())), plan.children[0].schema
    if plan.op in ("SortAggregate", "HashAggregate"):
        specs = plan.arg("aggregates", ())
        return tuple(s.arg for s in specs), plan.children[0].schema
    return None


def attach_plan_kernels(plan, _memo: Optional[dict] = None):
    """Return *plan* with kernels compiled and attached to its hot nodes.

    Called once per fresh optimization at prepare time; the returned plan
    carries ``OperatorKernels`` bundles in a ``"kernels"`` arg that
    lowering feeds to operator constructors.  Shared subtrees stay
    shared (identity memo); nodes with parameters or without
    expressions are passed through untouched.
    """
    memo: dict = {} if _memo is None else _memo
    done = memo.get(id(plan))
    if done is not None:
        return done
    children = tuple(attach_plan_kernels(c, memo) for c in plan.children)
    bundle = None
    if plan.arg("kernels") is None:
        spec = _node_expressions(plan)
        if spec is not None and spec[0]:
            exprs, schema = spec
            try:
                bundle = OperatorKernels(
                    [KERNELS.row_fn(e, schema) for e in exprs],
                    [KERNELS.batch_fn(e, schema) for e in exprs])
            except UnboundParamError:
                bundle = None
    if bundle is None and children == plan.children:
        memo[id(plan)] = plan
        return plan
    args = plan.args + (("kernels", bundle),) if bundle is not None else plan.args
    rebuilt = type(plan)(plan.op, plan.schema, plan.order, plan.stats,
                         plan.self_cost, children, args)
    memo[id(plan)] = rebuilt
    return rebuilt
