"""The Volcano-style cost-based optimizer ("PYRO", Section 5.2).

Request-driven search: ``optimize_goal(expr, required_order)`` returns
the cheapest physical plan for a logical expression that *guarantees*
the required sort order, memoised on ``(expr, canonical(order))``.
Every native candidate (scans, joins per interesting order, aggregates,
…) is passed through :meth:`PhysicalSelection.enforce`, which appends

* nothing, when the candidate's guaranteed order already satisfies the
  (FD-reduced) requirement;
* a **partial sort enforcer** when a non-empty prefix is shared (the
  paper's extension — standard Volcano only knows full enforcers);
* a full sort enforcer otherwise.

The interesting orders tried at merge joins / sort aggregates / merge
unions come from a pluggable :class:`~repro.core.interesting.OrderStrategy`
(PYRO, PYRO-P, PYRO-O, PYRO-O−, PYRO-E), so all of Experiment B3 runs on
one search engine.  Phase-2 refinement (Section 5.2.2) lives in
:mod:`repro.core.refinement` and re-enters this optimizer with a
:class:`~repro.core.interesting.ForcedOrderStrategy`.

This module is the *driver*: the search itself lives in
:mod:`repro.optimizer.pipeline` as four explicit stages (pre-check →
join enumeration → physical selection → parameterization).  The
:class:`Optimizer` facade resolves its
:class:`~repro.optimizer.pipeline.OptimizerConfig` into one pipeline,
and :meth:`Optimizer.optimize` is what happens to a query: stage 2 maps
its tree to the tree to search (join order is fixed there), stage 3 is
one :class:`~repro.optimizer.pipeline.PhysicalSelection` on that tree,
phase 2 re-searches it on that search's group table, and stage 4 reads
the parameter names off the winner.  See ``docs/optimizer.md``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from ..core.interesting import ForcedOrderStrategy
from ..core.refinement import refine_plan
from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..logical.algebra import (
    LogicalExpr,
    OrderBy,
    output_schema,
    referenced_tables,
)
from ..logical.builder import Query
from ..obs.trace import child_span
from ..storage.catalog import Catalog
from .plans import PhysicalPlan
from .pipeline import (
    JoinOrderEnumerator,
    OptimizationPipeline,
    OptimizerConfig,
    PhysicalSelection,
    plan_params,
)
from .pipeline.groups import GroupTable

#: A search's effort counters — the per-stage telemetry surfaced by
#: ``QuerySession.stats``.
_SEARCH_COUNTERS = ("goals_examined", "goals_pruned", "goals_failed",
                    "goals_researched", "memo_hits", "failure_memo_hits")


def split_required_order(query, required_order: Optional[SortOrder] = None
                         ) -> tuple[LogicalExpr, SortOrder]:
    """Normalize an optimizer input: unwrap :class:`Query`, and turn a
    root :class:`OrderBy` into the required output order.  Shared by
    :meth:`Optimizer.optimize` and the serving layer's plan-cache keying
    (:mod:`repro.service.session`) so the two can never diverge."""
    expr = query.expr if isinstance(query, Query) else query
    required = required_order or EMPTY_ORDER
    if isinstance(expr, OrderBy) and not required:
        required = expr.order
        expr = expr.child
    return expr, required


def reordered_tree(catalog: Catalog, enumerator: JoinOrderEnumerator,
                   expr: LogicalExpr) -> LogicalExpr:
    """Stage 2: the tree *enumerator* wants searched in place of *expr*.

    The registry enumerators are equivalent by construction; a custom
    one is checked, not trusted: unless it hands back the input node, its
    tree must read the same tables and produce the same output columns
    in the same order, or this raises (as a raising enumerator, or a
    tree too malformed to derive a schema for, does).
    """
    tree = enumerator.reorder(catalog, expr)
    if tree is not expr and (
            referenced_tables(tree) != referenced_tables(expr)
            or output_schema(catalog, tree).names
            != output_schema(catalog, expr).names):
        raise ValueError(f"{type(enumerator).__name__} returned a tree that "
                         "is not equivalent to the query as written")
    return tree


class Optimizer:
    """Public facade: one instance per catalog, reusable across queries."""

    def __init__(self, catalog: Catalog, strategy: Optional[str] = None,
                 config: Optional[OptimizerConfig] = None, **overrides) -> None:
        # A private copy: never mutate the caller's config.
        config = OptimizerConfig() if config is None else replace(config)
        if strategy is not None:
            overrides["strategy"] = strategy
        for key, value in overrides.items():
            if not hasattr(config, key):
                raise TypeError(f"unknown optimizer option {key!r}")
            setattr(config, key, value)
        self.catalog = catalog
        #: Stage 1 runs here, once: every later entry point — optimize,
        #: refinement, cost_of — reuses this pipeline (same resolved
        #: strategy *and* enumerator), never a rebuilt default.
        self.pipeline = OptimizationPipeline.from_config(config)
        self.config = self.pipeline.config
        #: Per-stage telemetry of the most recent :meth:`optimize` call
        #: (its refinement re-search included); see ``docs/optimizer.md``.
        self.last_telemetry: dict[str, float] = {}
        #: Stage 4's output for the plan the most recent :meth:`optimize`
        #: returned: the plan cache's miss path reads it, so a cold
        #: prepare walks its plan once.
        self.last_param_names: frozenset[str] = frozenset()

    def optimize(self, query, required_order: Optional[SortOrder] = None,
                 refine: Optional[bool] = None,
                 parallelism: Optional[int] = None) -> PhysicalPlan:
        """Optimize a :class:`Query` (or raw logical tree) to a physical plan.

        A root :class:`OrderBy` turns into the required output order.
        Phase-2 refinement is applied according to the config unless
        overridden by *refine*.  *parallelism* overrides the config's
        shard fan-out for this call (the serving layer passes the
        execution-time knob through).
        """
        expr, required = split_required_order(query, required_order)
        # Stage spans are ambient no-ops unless a query trace is active
        # (the serving layer activates one around plan preparation).
        with child_span("pre_check", strategy=self.config.strategy):
            pipeline = self.pipeline.with_parallelism(parallelism)
        with child_span("join_enumeration", candidates=1,
                        enumerator=type(pipeline.enumerator).__name__
                        ) as enum_span:
            start = time.perf_counter()
            try:
                tree = reordered_tree(self.catalog, pipeline.enumerator, expr)
            except Exception as exc:
                # The plug-in boundary: whatever a custom enumerator got
                # wrong, the query as written is always a valid tree.
                tree = expr
                enum_span.tag(rejected=repr(exc))
            enumerator_seconds = time.perf_counter() - start
        with child_span("physical_selection") as select_span:
            search = PhysicalSelection(self.catalog, tree, pipeline.strategy,
                                       pipeline.config)
            plan = search.optimize_goal(tree, required)
            plan = search.ensure_schema(plan, tree)
            select_span.tag(candidates=1, cost=plan.total_cost)
        effort = {name: getattr(search, name) for name in _SEARCH_COUNTERS}
        if self.config.refine if refine is None else refine:
            # Phase 2 pins orders onto nodes of the tree that was searched
            # (under a reordering enumerator not the as-written one), on
            # that search's group table.
            def replan(forced: dict[LogicalExpr, SortOrder]) -> PhysicalPlan:
                refined, again = self._forced_search(
                    tree, required, forced, pipeline, search.groups)
                for name in _SEARCH_COUNTERS:
                    effort[name] += getattr(again, name)
                return refined
            plan = refine_plan(plan, search.groups, replan)
        with child_span("parameterization"):
            self.last_param_names = plan_params(plan)
        self.last_telemetry = {"enumerator_seconds": enumerator_seconds,
                               "join_order_candidates": 1, **effort}
        return plan

    def optimize_with_forced_orders(self, expr: LogicalExpr, required: SortOrder,
                                    forced: dict[LogicalExpr, SortOrder],
                                    parallelism: Optional[int] = None,
                                    groups: Optional[GroupTable] = None
                                    ) -> PhysicalPlan:
        """Re-plan with explicit permutations at given nodes (phase 2).

        Join enumeration is *not* re-run: phase 2 pins orders onto nodes
        of an already-chosen tree, so the tree is searched as given — on
        *groups*, the phase-1 search's group table of that tree, when the
        caller has it (the memo is fresh either way: goals are optimal
        only under the strategy that searched them).
        """
        return self._forced_search(expr, required or EMPTY_ORDER, forced,
                                   self.pipeline.with_parallelism(parallelism),
                                   groups)[0]

    def _forced_search(self, expr: LogicalExpr, required: SortOrder,
                       forced: dict[LogicalExpr, SortOrder],
                       pipeline: OptimizationPipeline,
                       groups: Optional[GroupTable]
                       ) -> tuple[PhysicalPlan, PhysicalSelection]:
        """The forced re-search's plan, and the search for its effort."""
        search = PhysicalSelection(
            self.catalog, expr, ForcedOrderStrategy(pipeline.strategy, forced),
            pipeline.config, groups)
        plan = search.optimize_goal(expr, required)
        return search.ensure_schema(plan, expr), search

    def cost_of(self, query, required_order: Optional[SortOrder] = None,
                parallelism: Optional[int] = None) -> float:
        return self.optimize(query, required_order,
                             parallelism=parallelism).total_cost
