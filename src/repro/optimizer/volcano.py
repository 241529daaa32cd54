"""The Volcano-style cost-based optimizer ("PYRO", Section 5.2).

Request-driven search: ``optimize_goal(expr, required_order)`` returns
the cheapest physical plan for a logical expression that *guarantees*
the required sort order, memoised on ``(expr, canonical(order))``.
Every native candidate (scans, joins per interesting order, aggregates,
…) is passed through :meth:`OptimizationRun.enforce`, which appends

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

Since the staged-pipeline refactor this module is the *driver*: the
search itself lives in :mod:`repro.optimizer.pipeline` as four explicit
stages (pre-check → join enumeration → physical selection →
parameterization) composed by an
:class:`~repro.optimizer.pipeline.OptimizationPipeline`.  The
:class:`Optimizer` facade builds one pipeline from its
:class:`~repro.optimizer.pipeline.OptimizerConfig` and every entry
point — ``optimize``, phase-2 refinement, ``cost_of`` — reuses it;
:class:`OptimizationRun` drives stages 2–4 for a single query, running
one :class:`~repro.optimizer.pipeline.PhysicalSelection` search per
join-order candidate tree and keeping the cheapest plan.  See
``docs/optimizer.md``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from ..core.interesting import ForcedOrderStrategy, OrderStrategy
from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..logical.algebra import LogicalExpr, OrderBy, referenced_tables
from ..logical.builder import Query
from ..obs.trace import child_span
from ..storage.catalog import Catalog
from .plans import PhysicalPlan
from .pipeline import (
    ExhaustiveEnumerator,
    OptimizationPipeline,
    OptimizerConfig,
    PhysicalSelection,
    parameterize,
)
from .pipeline.groups import GroupTable

#: Search-effort counters aggregated across every per-candidate search
#: of a run — the per-stage telemetry surfaced by ``QuerySession.stats``.
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
        self._strategy = self.pipeline.strategy
        #: Per-stage telemetry of the most recent :meth:`optimize` call
        #: (refinement re-searches included); see ``docs/optimizer.md``.
        self.last_telemetry: dict[str, float] = {}

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
            pipeline = self._pipeline_for(parallelism)
            run = OptimizationRun(self.catalog, expr, pipeline.strategy,
                                  pipeline.config, pipeline=pipeline)
        plan = run.optimize(required)
        self.last_telemetry = run.telemetry()
        do_refine = self.config.refine if refine is None else refine
        if do_refine:
            from ..core.refinement import refine_plan
            # Refine the tree the run actually chose — under a
            # reordering enumerator the as-written tree may not match
            # the plan's join shape — on that search's group table.
            plan = refine_plan(self, run.chosen.root, required, plan,
                               parallelism=pipeline.config.parallelism,
                               groups=run.chosen.groups)
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
        pipeline = self._pipeline_for(parallelism)
        strategy = ForcedOrderStrategy(pipeline.strategy, forced)
        run = OptimizationRun(self.catalog, expr, strategy, pipeline.config,
                              groups=groups)
        plan = run.optimize_goal(expr, required or EMPTY_ORDER)
        plan = run.ensure_schema(plan, expr)
        self._merge_telemetry(run.telemetry())
        return plan

    def _pipeline_for(self, parallelism: Optional[int]) -> OptimizationPipeline:
        """The constructed pipeline at the requested shard fan-out —
        never a rebuilt default (same strategy/enumerator objects)."""
        return self.pipeline.with_parallelism(parallelism)

    def cost_of(self, query, required_order: Optional[SortOrder] = None,
                parallelism: Optional[int] = None) -> float:
        return self.optimize(query, required_order,
                             parallelism=parallelism).total_cost

    def _merge_telemetry(self, telemetry: dict[str, float]) -> None:
        """Fold a refinement re-search's counters into the last
        :meth:`optimize` telemetry (refinement is part of the same
        logical optimization from the caller's point of view)."""
        if not self.last_telemetry:
            self.last_telemetry = telemetry
            return
        for key, value in telemetry.items():
            if isinstance(value, (int, float)):
                self.last_telemetry[key] = (
                    self.last_telemetry.get(key, 0) + value)


class OptimizationRun(PhysicalSelection):
    """Drives pipeline stages 2–4 for one query.

    Subclasses :class:`~repro.optimizer.pipeline.PhysicalSelection`, so
    the pre-pipeline API — ``optimize_goal``, ``enforce``, the memo and
    the search counters — keeps working on the run itself; that search
    state covers the as-written tree.  :meth:`optimize` additionally
    runs join enumeration (stage 2), searches every candidate tree (a
    fresh :class:`PhysicalSelection` per rewritten tree), keeps the
    cheapest plan, and computes its bind-readiness (stage 4).
    """

    def __init__(self, catalog: Catalog, root: LogicalExpr,
                 strategy: OrderStrategy, config: OptimizerConfig,
                 pipeline: Optional[OptimizationPipeline] = None,
                 groups: Optional[GroupTable] = None) -> None:
        super().__init__(catalog, root, strategy, config, groups)
        if pipeline is None:
            # Direct construction (tests, benchmarks, forced-order
            # re-planning): search the tree as written.
            pipeline = OptimizationPipeline(config, strategy,
                                            ExhaustiveEnumerator())
        self.pipeline = pipeline
        #: Stage-2 wall time of the last :meth:`optimize`.
        self.enumerator_seconds = 0.0
        #: Candidate trees actually searched by the last :meth:`optimize`.
        self.join_order_candidates = 0
        #: Stage-4 output: parameter names the chosen plan needs bound.
        self.param_names: frozenset[str] = frozenset()
        # The run is itself the as-written tree's search; holding only
        # the *other* searches keeps a finished run free of reference
        # cycles, so it (and the catalog it pins) dies with its last
        # reference instead of waiting for the cyclic collector.
        self._other_searches: list[PhysicalSelection] = []
        self._chosen_other: Optional[PhysicalSelection] = None

    @property
    def chosen(self) -> PhysicalSelection:
        """The search whose plan won (the as-written tree's until
        :meth:`optimize` decides otherwise) — phase-2 refinement must
        refine its tree, on its group table, not the original's."""
        return self if self._chosen_other is None else self._chosen_other

    def optimize(self, required: SortOrder) -> PhysicalPlan:
        """Stages 2–4: enumerate join orders, search each candidate,
        return the cheapest plan (bit-identical to the pre-pipeline
        optimizer under the default exhaustive enumerator)."""
        with child_span("join_enumeration",
                        enumerator=type(self.pipeline.enumerator).__name__
                        ) as enum_span:
            start = time.perf_counter()
            trees = list(self.pipeline.enumerator.candidate_trees(
                self.catalog, self.root)) or [self.root]
            self.enumerator_seconds = time.perf_counter() - start
            enum_span.tag(candidates=len(trees))
        root_tables = referenced_tables(self.root)
        root_schema = self.groups.root.schema.names
        best: Optional[PhysicalPlan] = None
        best_search: PhysicalSelection = self
        seen: set[LogicalExpr] = set()
        self.join_order_candidates = 0
        with child_span("physical_selection") as select_span:
            for tree in trees:
                if tree in seen:
                    continue
                seen.add(tree)
                if tree == self.root:
                    search: PhysicalSelection = self
                    tree = self.root
                else:
                    # An enumerator's candidate must be exactly equivalent:
                    # same tables, same output columns in the same order.
                    # Anything else (a misbehaving custom enumerator) is
                    # skipped rather than trusted.
                    try:
                        if referenced_tables(tree) != root_tables:
                            continue
                        search = PhysicalSelection(self.catalog, tree,
                                                   self.strategy, self.config)
                        if search.groups.root.schema.names != root_schema:
                            continue
                    except Exception:
                        continue
                    self._other_searches.append(search)
                self.join_order_candidates += 1
                plan = search.optimize_goal(tree, required)
                plan = search.ensure_schema(plan, tree)
                if best is None or plan.total_cost < best.total_cost:
                    best = plan
                    best_search = search
            if best is None:
                # Every candidate was rejected: fall back to the query as
                # written (always a valid candidate).
                self.join_order_candidates = 1
                best = self.optimize_goal(self.root, required)
                best = self.ensure_schema(best, self.root)
            select_span.tag(candidates=self.join_order_candidates,
                            cost=best.total_cost)
        self._chosen_other = None if best_search is self else best_search
        with child_span("parameterization"):
            self.param_names = parameterize(best)
        return best

    def telemetry(self) -> dict[str, float]:
        """Per-stage search telemetry, aggregated over every candidate
        search of this run (keys documented in ``docs/optimizer.md``)."""
        out: dict[str, float] = {
            "enumerator_seconds": self.enumerator_seconds,
            "join_order_candidates": self.join_order_candidates,
        }
        for counter in _SEARCH_COUNTERS:
            out[counter] = sum(getattr(s, counter)
                               for s in (self, *self._other_searches))
        return out
