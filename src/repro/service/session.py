"""The query-serving facade: prepare once, execute many.

:class:`QuerySession` wires the optimizer, the plan cache and the
execution engine into the loop a production system actually runs:

1. ``prepare(query)`` — fingerprint the logical tree, look the plan up
   in the :class:`~repro.service.plan_cache.PlanCache`; only on a miss
   pay for a full (cost-bounded) Volcano search.  A :class:`Query`
   object is normalized, fingerprinted and searched for its tables once
   per requested order; each prepare still salts the key with its
   parallelism and join enumerator and reads the tables' versions.
2. ``PreparedQuery.execute(**binds)`` — run the cache entry's lowered
   operator tree (built by the entry's first execution) with the
   parameter bindings as run-time values.

Parameters (:class:`repro.expr.expressions.Param`) make one cache entry
serve a whole family of queries: the cost model's selectivity estimates
never depend on literal values, so the plan is bind-independent by
construction, and so is everything made from it — a warm execution
rebuilds neither the plan, nor its operators, nor their kernels.

Cached plans are keyed on the versions of **only the tables they
reference** (:meth:`repro.storage.catalog.Catalog.table_versions`):
``refresh_stats("orders")`` or a new index on ``orders`` invalidates
exactly the plans that read ``orders`` and leaves the rest of the cache
hot.  The re-prepare of an invalidated plan re-costs only: it searches
on the group table of the session's previous search of that query
(statistics-free), unless an index landed on one of its tables or the
join enumerator rebuilt its tree.

Execution is batch-vectorized: ``execute`` runs under an
:class:`~repro.engine.context.ExecutionContext`, whose ``batch_size`` is
the rows per :class:`~repro.engine.batch.RowBatch`.  ``parallelism`` is a
*planning* input: ``prepare(parallelism=k)`` lets the search place shard
fan-outs and per-shard enforcers where they pay (and salts the cache
key); execution runs the plan exactly as planned.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Optional, Union as TUnion

from ..engine.context import ExecutionContext
from ..engine.kernels import kernel_stats
from ..engine.prepared import BoundPlan, PreparedPlan
from ..logical.algebra import LogicalExpr, referenced_params, referenced_tables
from ..logical.builder import Query
from ..logical.fingerprint import logical_fingerprint
from ..core.sort_order import SortOrder
from ..obs.analyze import ExplainAnalyze
from ..obs.trace import child_span
from ..optimizer.pipeline.groups import GroupTable
from ..optimizer.pipeline.physical_selection import shard_decisions
from ..optimizer.plans import PhysicalPlan
from ..optimizer.volcano import Optimizer, split_required_order
from ..storage.catalog import Catalog
from .feedback import FeedbackConfig, scan_table
from .plan_cache import PlanCache


class BindingError(KeyError):
    """The bindings of an execution do not name the query's parameters:
    one is missing or one is unknown.  A ``KeyError``."""


def check_bindings(names: frozenset[str], binds: dict[str, Any]) -> None:
    """Raise :class:`BindingError` unless *binds* names exactly the
    parameters *names*."""
    if binds.keys() != names:
        unknown = sorted(binds.keys() - names)
        if unknown:
            raise BindingError(f"unknown query parameters: {unknown}")
        raise BindingError("missing bindings for parameters: "
                           f"{sorted(names - binds.keys())}")


def _logical_key(query: TUnion[Query, LogicalExpr],
                 required_order: Optional[SortOrder]
                 ) -> tuple[LogicalExpr, SortOrder, str, frozenset[str],
                            frozenset[str]]:
    """The tree to plan, its required order, its unsalted fingerprint,
    the tables it reads and the parameters it reads.

    The normalization is the one :meth:`Optimizer.optimize` applies, so
    the cache key always describes exactly the tree that gets planned.
    A :class:`Query` keeps the answer for its last requested order in
    its private slot (one entry, so it cannot grow); a ``LogicalExpr``
    is walked on every call.  Two threads may fill one slot: both write
    the same value, in one assignment.
    """
    if isinstance(query, Query):
        memo = query._plan_key
        if memo is not None and memo[0] == required_order:
            return memo[1]
    expr, required = split_required_order(query, required_order)
    key = (expr, required, logical_fingerprint(expr, required),
           referenced_tables(expr), referenced_params(expr))
    if isinstance(query, Query):
        query._plan_key = (required_order, key)
    return key


def parameter_names(query: TUnion[Query, LogicalExpr],
                    required_order: Optional[SortOrder]) -> frozenset[str]:
    """The parameters *query* reads: a :class:`Query`'s from the key it
    keeps (:func:`_logical_key`), a bare tree's by a walk."""
    if isinstance(query, Query):
        return _logical_key(query, required_order)[4]
    return referenced_params(query)


# -- the session ------------------------------------------------------------------------
@dataclass
class SessionMetrics:
    """Serving-side counters (cache counters live on the cache itself)."""

    prepares: int = 0
    optimizations: int = 0
    #: Optimizations that reused the group table of this session's
    #: previous search of the query (a re-prepare after a statistics
    #: change: only costing is redone).
    reprepares: int = 0
    executions: int = 0
    optimize_seconds: float = 0.0
    #: Shard-aware enforcer placement decisions, counted once per fresh
    #: optimization at ``parallelism > 1``: plans that enforce order
    #: per shard under an order-preserving merge vs plans that kept the
    #: post-union sort because the cost model said the merge would not
    #: pay off.  The optimizer reads them off the plan
    #: (:func:`~repro.optimizer.pipeline.physical_selection.shard_decisions`).
    shard_merge_plans: int = 0
    post_union_sort_plans: int = 0
    #: Fresh plans that shard a *join* (per-shard joins under an
    #: exchange gather — broadcast or co-partitioned) and plans that
    #: shard an *aggregation* (per-shard aggregates + final combine).
    sharded_join_plans: int = 0
    sharded_agg_plans: int = 0
    #: Fresh plans that shard a *DISTINCT*: per-shard deduplication under
    #: an order-preserving merge with a merge-level final dedup.
    sharded_distinct_plans: int = 0
    #: Per-stage optimizer telemetry, summed over fresh optimizations
    #: (from :attr:`Optimizer.last_telemetry`): stage-2 join-enumeration
    #: wall time and candidate count, and stage-3 search effort — goals
    #: expanded/pruned and (failure-)memo hits.
    enumerator_seconds: float = 0.0
    join_order_candidates: int = 0
    goals_examined: int = 0
    goals_pruned: int = 0
    memo_hits: int = 0
    failure_memo_hits: int = 0
    #: Adaptive-statistics feedback (sessions built with a
    #: :class:`~repro.service.feedback.FeedbackConfig`): executions whose
    #: tallies were inspected, scan meters found past the drift
    #: threshold, and catalog refreshes actually performed (drift that
    #: survived the ground-truth check — each one bumps ``stats_version``
    #: and invalidates the cached plans reading the table).
    drift_checks: int = 0
    drift_events: int = 0
    feedback_refreshes: int = 0


def cache_and_kernel_stats(cache: PlanCache) -> dict[str, Any]:
    """The plan cache's size and counters (``cache_*``) and the kernel
    counters, as ``QuerySession.stats()`` and ``QueryServer.stats()``
    report them.  The kernel cache is process-global, so a server reads
    its counters once, not once per session."""
    return {"cache_size": len(cache), "cache_capacity": cache.capacity,
            **{f"cache_{name}": value
               for name, value in cache.stats.as_dict().items()},
            **kernel_stats()}


class PreparedQuery:
    """An optimized, cached plan ready for (repeated) execution."""

    def __init__(self, session: "QuerySession", prepared: PreparedPlan,
                 fingerprint: str, required: SortOrder,
                 from_cache: bool, tables: frozenset[str] = frozenset()
                 ) -> None:
        self.session = session
        #: The plan-cache entry: plan, parameter names (stage 4's, kept
        #: from the cold prepare) and the lowered tree.
        self.prepared = prepared
        self.plan: PhysicalPlan = prepared.plan
        self.param_names = prepared.param_names
        self.fingerprint = fingerprint
        self.required_order = required
        self.from_cache = from_cache
        self.tables = tables

    @property
    def total_cost(self) -> float:
        return self.plan.total_cost

    def explain(self) -> str:
        return self.plan.explain()

    def bind(self, **binds: Any) -> BoundPlan:
        """The cached executable plus these parameter values."""
        check_bindings(self.param_names, binds)
        return BoundPlan(self.prepared, binds)

    def execute(self, ctx: Optional[ExecutionContext] = None,
                **binds: Any) -> list[tuple]:
        """Run the plan, exactly as planned, on the batched engine,
        under *ctx* (its ``batch_size``, ``check_orders`` and
        ``meter_timing``; a default context when none is given)."""
        plan = self.bind(**binds)
        self.session.metrics.executions += 1
        ctx = ctx or ExecutionContext(self.session.catalog)
        rows = plan.execute(self.session.catalog, ctx)
        self.session.observe_execution(self, ctx)
        return rows


class QuerySession:
    """Prepare, cache and execute queries against one catalog.

    One session per serving process; safe to reuse across queries.  The
    underlying :class:`Optimizer` is rebuilt only when a plan-cache miss
    forces a fresh search.
    """

    def __init__(self, catalog: Catalog, *,
                 cache: Optional[PlanCache[PreparedPlan]] = None,
                 feedback: Optional[FeedbackConfig] = None,
                 **options: Any) -> None:
        self.catalog = catalog
        #: *options* are :class:`~repro.optimizer.pipeline.OptimizerConfig`
        #: fields by name (``strategy=``, ``join_enumerator=``, …).
        self.optimizer = Optimizer(catalog, **options)
        #: *cache* may be shared across sessions (the serving tier passes
        #: one to every session it creates); without one the session
        #: keeps a private 128-entry cache.
        self.cache: PlanCache[PreparedPlan] = cache if cache is not None \
            else PlanCache()
        #: Adaptive-statistics feedback; ``None`` (the default) disables
        #: drift detection entirely — see :mod:`repro.service.feedback`.
        self.feedback = feedback
        self.metrics = SessionMetrics()
        #: Cache key -> (registry versions of its tables, group table of
        #: its last search), LRU-bounded by the cache's capacity.  Only
        #: one search holds a table: a re-prepare pops it while it runs.
        self._groups: "OrderedDict[str, tuple[tuple, GroupTable]]" = \
            OrderedDict()

    # -- public API ------------------------------------------------------------------
    def prepare(self, query: TUnion[Query, LogicalExpr],
                required_order: Optional[SortOrder] = None,
                parallelism: int = 1) -> PreparedQuery:
        """Plan (or fetch the cached plan for) a query.

        ``parallelism > 1`` plans for a sharded execution: enforcers may
        be placed per shard under an order-preserving merge when the cost
        model favours it, so the fan-out is part of the cache key — the same
        logical query prepared at a different parallelism is a different
        physical plan.
        """
        # The "plan" span covers cache lookup + (on a miss) the full
        # optimizer pipeline; its children are the four stage spans the
        # Optimizer emits.  No-op when no query trace is active.
        with child_span("plan") as span:
            prepared = self._prepare(query, required_order, parallelism)
            span.tag(cache_hit=prepared.from_cache,
                     fingerprint=prepared.fingerprint)
        return prepared

    def _prepare(self, query: TUnion[Query, LogicalExpr],
                 required_order: Optional[SortOrder] = None,
                 parallelism: int = 1) -> PreparedQuery:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        expr, required, fp, tables, _ = _logical_key(query, required_order)
        if parallelism > 1:
            fp = f"{fp}#p{parallelism}"
        # Like the parallelism salt: plans from different join-order
        # enumerators are different physical plans for the same logical
        # query, so they must never collide in a (shared) cache.  The
        # default exhaustive enumerator salts with "" — pre-pipeline
        # fingerprints stay valid.
        enumerator_salt = self.optimizer.enumerator.cache_salt
        if enumerator_salt:
            fp = f"{fp}#j{enumerator_salt}"
        # Per-table invalidation: the token covers only the tables this
        # query reads, so refreshes elsewhere leave the entry valid.
        version = self.catalog.table_versions(tables)
        self.metrics.prepares += 1
        entry = self.cache.get(fp, version)
        if entry is not None:
            return PreparedQuery(self, entry, fp, required, from_cache=True,
                                 tables=tables)
        # A re-prepare keeps the statistics-free half of the last search
        # (groups, used attributes, favorable orders) unless an index landed
        # on one of the query's tables since; the optimizer checks that
        # stage 2 hands back the same tree.
        registry = self.catalog.registry_versions(tables)
        held = self._groups.pop(fp, None)
        reuse = held[1] if held is not None and held[0] == registry else None
        start = time.perf_counter()
        plan = self.optimizer._optimize(expr, required,
                                        parallelism=parallelism, groups=reuse)
        self.metrics.optimize_seconds += time.perf_counter() - start
        self.metrics.optimizations += 1
        groups = self.optimizer.last_groups
        if groups is reuse:
            self.metrics.reprepares += 1
        self._groups[fp] = (registry, groups)
        if len(self._groups) > self.cache.capacity:
            self._groups.popitem(last=False)
        telemetry = self.optimizer.last_telemetry
        for name in ("enumerator_seconds", "join_order_candidates",
                     "goals_examined", "goals_pruned", "memo_hits",
                     "failure_memo_hits"):
            setattr(self.metrics, name,
                    getattr(self.metrics, name) + telemetry[name])
        if parallelism > 1:
            for name in shard_decisions(plan, self.catalog, parallelism):
                setattr(self.metrics, name, getattr(self.metrics, name) + 1)
        entry = PreparedPlan(plan, self.optimizer.last_param_names)
        self.cache.put(fp, entry, version)
        return PreparedQuery(self, entry, fp, required, from_cache=False,
                             tables=tables)

    def execute(self, query: TUnion[Query, LogicalExpr],
                required_order: Optional[SortOrder] = None,
                ctx: Optional[ExecutionContext] = None,
                parallelism: int = 1, **binds: Any) -> list[tuple]:
        """Prepare (served from cache when possible) and execute."""
        return self.prepare(query, required_order,
                            parallelism=parallelism).execute(ctx, **binds)

    def explain(self, query: TUnion[Query, LogicalExpr],
                required_order: Optional[SortOrder] = None,
                parallelism: int = 1) -> str:
        return self.prepare(query, required_order, parallelism=parallelism).explain()

    def explain_analyze(self, query: TUnion[Query, LogicalExpr],
                        required_order: Optional[SortOrder] = None,
                        ctx: Optional[ExecutionContext] = None,
                        parallelism: int = 1,
                        **binds: Any) -> ExplainAnalyze:
        """Prepare, *actually execute*, and annotate the plan tree with
        measured rows, wall time and batch counts per operator —
        estimated vs actual, PostgreSQL's ``EXPLAIN ANALYZE``.

        The execution is a real one (feedback, kernels, metering all
        engaged) under *ctx* as in :meth:`execute`, with its
        ``meter_timing`` turned on; the result rows ride along on the
        returned :class:`~repro.obs.analyze.ExplainAnalyze` as ``.rows``
        so callers don't pay for a second run.
        """
        prepared = self.prepare(query, required_order,
                                parallelism=parallelism)
        ctx = ctx or ExecutionContext(self.catalog)
        ctx.meter_timing = True
        start = time.perf_counter()
        rows = prepared.execute(ctx, **binds)
        wall = time.perf_counter() - start
        return ExplainAnalyze(
            prepared.plan,
            {tag: (c[0], c[1]) for tag, c in ctx.operator_rows.items()},
            {tag: (c[0], c[1]) for tag, c in ctx.operator_times.items()},
            wall, len(rows), rows=rows)

    def cost_of(self, query: TUnion[Query, LogicalExpr],
                required_order: Optional[SortOrder] = None,
                parallelism: int = 1) -> float:
        return self.prepare(query, required_order,
                            parallelism=parallelism).total_cost

    # -- adaptive-statistics feedback ------------------------------------------------
    def observe_execution(self, prepared: PreparedQuery,
                          ctx: ExecutionContext) -> int:
        """Inspect one execution's per-operator row tallies for drift.

        For every scan meter whose actual row count left the configured
        drift band, the live table is consulted: only when its *declared*
        ``stats.num_rows`` also disagrees with the materialised row count
        (i.e. the catalog statistics themselves are stale — not a benign
        early-terminated scan under a ``Limit``) is
        ``catalog.refresh_stats`` invoked.  The refresh re-measures row
        and distinct counts from the rows (distinct sketches are built
        later, only if read) and bumps the table's ``stats_version``,
        invalidating exactly the cached plans that read it; the next
        ``prepare`` re-optimizes cost-first, re-costing on the group
        table of this session's previous search of the query.

        Returns the number of tables refreshed.  No-op (returning 0)
        when the session was built without a :class:`FeedbackConfig`.
        """
        feedback = self.feedback
        if feedback is None:
            return 0
        self.metrics.drift_checks += 1
        refreshed = 0
        seen: set[str] = set()
        for tag, cell in ctx.operator_rows.items():
            table_name = scan_table(tag)
            if table_name is None or table_name in seen:
                continue
            seen.add(table_name)
            estimated, actual = cell[0], cell[1]
            if not feedback.drifted(estimated, actual):
                continue
            self.metrics.drift_events += 1
            if not self.catalog.has_table(table_name):
                continue
            table = self.catalog.table(table_name)
            if not table.is_materialized:
                continue  # stats-only tables have no ground truth to re-measure
            if not feedback.drifted(table.stats.num_rows, len(table)):
                continue  # declared stats match reality; drift was per-run noise
            self.catalog.refresh_stats(table_name)
            self.metrics.feedback_refreshes += 1
            refreshed += 1
        return refreshed

    def stats(self) -> dict[str, Any]:
        """Serving-side observability: session counters + cache counters.

        Flat, JSON-friendly dict — what a /metrics endpoint would expose.
        """
        out: dict[str, Any] = {f.name: getattr(self.metrics, f.name)
                               for f in fields(SessionMetrics)}
        out["join_enumerator"] = self.optimizer.enumerator.name
        out.update(cache_and_kernel_stats(self.cache))
        return out
