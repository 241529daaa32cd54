"""Stage 3 — physical operator selection.

The cost-based Volcano search that turns one logical tree into the
cheapest physical plan guaranteeing a required sort order: native
candidate generation per logical operator, the paper's (partial) sort
enforcers, shard-aware enforcer/join/aggregate/distinct placement, and
the cost-bounded branch-and-bound memo with Columbia's re-search
discipline.

One :class:`PhysicalSelection` instance searches one join tree: the one
stage 2 decided on (the pipeline driver in :mod:`repro.optimizer.volcano`
builds one per query, and one more on the same group table when phase 2
forces orders).  The search is split the Cascades way: what is true
of a logical node's *result* lives once per group in the
:class:`~.groups.GroupTable`; the search itself only holds what depends
on a requested order — the memo of ``(group id, canonical order)``
goals and the plans under them.  See "Groups and goals" in
``docs/optimizer.md``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

from ...core.interesting import OrderContext, OrderStrategy
from ...core.sort_order import AttributeEquivalence, EMPTY_ORDER, SortOrder
from ...engine.aggregates import combinable
from ...engine.exchange import ORDER_PRESERVING_UNARY_OPS
from ...engine.scans import range_shardable, shardable
from ...logical.algebra import (
    BaseRelation,
    Compute,
    Distinct,
    GroupBy,
    Join,
    Limit,
    LogicalExpr,
    OrderBy,
    Project,
    Select,
    Union,
)
from ...storage.catalog import Catalog
from ...storage.schema import Schema
from ...storage.statistics import StatsView
from ..cost import prefer_sharded
from ..manual import PlanBuilder
from ..plans import PhysicalPlan
from .groups import Group, GroupTable
from .pre_check import OptimizerConfig

def enforcement_chain_scan(plan: PhysicalPlan) -> Optional[PhysicalPlan]:
    """The scan under a chain of per-row, order-preserving unaries, or
    ``None`` when *plan* is not such a chain.  Sharded execution of a
    chain over one shardable scan provably partitions the unsharded
    stream — the shape every below-the-exchange placement builds on."""
    node = plan
    while node.op in ORDER_PRESERVING_UNARY_OPS and len(node.children) == 1:
        node = node.children[0]
    return node if node.op in ("TableScan", "ClusteringIndexScan") else None


def shardable_enforcement_input(plan: PhysicalPlan, catalog: Catalog,
                                parallelism: int) -> bool:
    """Whether *plan* is a shape whose order enforcement can be pushed
    below a shard fan-out — a unary chain over a scan that is either
    contiguously shardable at *parallelism* or range-partitioned.  Shared
    by the search (:meth:`PhysicalSelection.enforce`) and the serving
    layer's decision counters, so "a sharded alternative existed" means
    the same thing in both places.
    """
    if parallelism < 2:
        return False
    scan = enforcement_chain_scan(plan)
    if scan is None:
        return False
    table = catalog.table(scan.arg("table"))
    return shardable(table, parallelism) or range_shardable(table)


class _Bound:
    """Mutable upper bound shared between a goal and its candidate
    generator; shrinks as better complete plans are found."""

    __slots__ = ("value",)

    def __init__(self, value: float = math.inf) -> None:
        self.value = value


class PhysicalSelection:
    """State for optimizing a single query (memo, annotations, afm)."""

    def __init__(self, catalog: Catalog, root: LogicalExpr,
                 strategy: OrderStrategy, config: OptimizerConfig,
                 groups: Optional[GroupTable] = None) -> None:
        self.catalog = catalog
        self.root = root
        self.config = config
        self.strategy = strategy
        #: Logical properties of *root*'s nodes; *groups* hands in the
        #: table of an earlier search of the same tree (phase 2).
        self.groups = groups or GroupTable(catalog, root)
        self.annotator = self.groups.annotator
        #: Whole-query equivalence classes and FDs — used for *candidate
        #: generation* (interesting orders) and cost pricing.  Goal
        #: satisfaction and reduction must NOT use these: a join
        #: equivalence or a constant filter (``t0_c1 = 28``) established
        #: in one union branch is invalid in a name-colliding sibling,
        #: and reducing the sibling's sort goal with it silently drops a
        #: sort column (caught by the plan-parity fuzz suite).  Goals use
        #: their own :class:`~.groups.Group`'s subtree-scoped facts.
        self.eq = self.annotator.eq
        self.fds = self.groups.root.fds
        self.favorable = self.groups.favorable
        #: Makes every plan node of this search: what an operator's
        #: schema, order, statistics and cost are is its business, which
        #: child goals to request and which candidate wins is ours.
        self.builder = PlanBuilder(catalog, self.eq)
        #: The builder's once-per-input derivations, one table per search.
        self._derived = self.builder._derived
        self.order_ctx = OrderContext(self.favorable, self.fds, self.eq)
        #: Goal → exact optimum, keyed ``(group id, canonical order)``.
        self._memo: dict[tuple, PhysicalPlan] = {}
        #: Failure memo (Columbia's re-search discipline): goal → largest
        #: budget known infeasible.  ``_failed[key] = L`` is the *exact*
        #: statement "no plan of this goal costs < L": a bounded search
        #: only ever discards candidates costing ≥ its budget, so a
        #: fruitless search at budget L proves it.  Requests at limits
        #: ≤ L are answered ``None`` instantly; a larger budget triggers
        #: a genuine re-search.
        self._failed: dict[tuple, float] = {}
        #: *Distinct* subgoals optimized — the optimization-effort metric
        #: of Fig. 16.  A re-search of a failure-memoised goal at a larger
        #: budget counts in :attr:`goals_researched`, not here.
        self.goals_examined = 0
        #: Subgoals skipped because their cost budget was already exhausted
        #: (budget ≤ 0 or failure-memo hit; see :meth:`optimize_goal`).
        self.goals_pruned = 0
        #: Subgoals answered from the failure memo without a search.
        self.failure_memo_hits = 0
        #: Subgoals answered from the (success) memo without a search.
        self.memo_hits = 0
        #: Bounded searches that came up empty (failure memo entries made).
        self.goals_failed = 0
        #: Re-searches of previously failed goals at larger budgets.
        self.goals_researched = 0

    # -- goal optimization -------------------------------------------------------------
    def optimize_goal(self, expr: LogicalExpr, required: SortOrder,
                      limit: float = math.inf) -> Optional[PhysicalPlan]:
        """Cheapest plan for *expr* guaranteeing *required*.

        *limit* is the branch-and-bound budget handed down by the parent
        goal.  Three ways to skip the search entirely:

        * a memo hit (exact optimum from an earlier search);
        * a budget that is already ≤ 0 — no plan can make the enclosing
          candidate competitive (all costs are non-negative);
        * a failure-memo hit: an earlier *bounded* search at budget
          ``L ≥ limit`` found nothing, proving no plan costs < limit.

        Otherwise the goal is searched with the budget as the initial
        branch-and-bound upper bound.  A search that finds a plan found
        the *exact* optimum (only candidates costing ≥ the shrinking
        bound are ever discarded) and memoises it; a bounded search that
        finds nothing records the exact infeasibility fact
        ``no plan < limit`` in the failure memo and returns ``None`` —
        a later request with a larger budget re-searches (Columbia's
        re-search discipline).  Either way pruning never changes chosen
        plans, only the number of goals examined.
        """
        group = self.groups.of(expr)
        required, key = group.goal(required)
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        if limit <= 0.0:
            self.goals_pruned += 1
            return None
        failed_at = self._failed.get(key)
        if failed_at is not None and limit <= failed_at:
            self.goals_pruned += 1
            self.failure_memo_hits += 1
            return None
        if failed_at is not None:
            self.goals_researched += 1
        else:
            self.goals_examined += 1

        bound = _Bound(limit if self.config.cost_bound_pruning else math.inf)
        best: Optional[PhysicalPlan] = None
        for candidate in self._native_candidates(expr, required, bound):
            plan = self.enforce(candidate, required, bound.value, group)
            if plan is None:
                continue
            if best is None or plan.total_cost < best.total_cost:
                best = plan
                if self.config.cost_bound_pruning:
                    bound.value = best.total_cost
        if best is None:
            if math.isinf(limit):
                raise RuntimeError(
                    f"no plan for {expr.label()} with required order {required}")
            # Exact failure fact: every candidate was discarded against a
            # bound that never dropped below *limit*, so no plan of this
            # goal costs < limit.
            self._failed[key] = max(failed_at or 0.0, limit)
            self.goals_failed += 1
            return None
        self._memo[key] = best
        self._failed.pop(key, None)  # success supersedes any failure marker
        return best

    # -- enforcers ------------------------------------------------------------------------
    def enforce(self, plan: PhysicalPlan, required: SortOrder,
                limit: float = math.inf,
                group: Optional[Group] = None) -> Optional[PhysicalPlan]:
        """Add a (partial) sort enforcer if *plan* misses the requirement.

        *group* is the goal's group, whose FDs and equivalences — valid
        on the goal's own subtree — decide requirement *satisfaction*: a
        sibling union branch's join equivalence must neither skip a
        needed sort nor donate a partial-sort prefix the stream does not
        actually have.  It defaults to the root group (the whole-query
        facts) for external callers planning single-subtree chains.

        With ``parallelism > 1`` and a shardable input, two enforcer
        placements compete on cost: the classic post-union sort above the
        (future) exchange, and per-shard SRS/MRS enforcers gathered by an
        order-preserving :class:`MergeExchange` — "partitioned +
        per-shard-ordered" is a physical property the merge converts into
        the required global order.  Ties resolve to the simpler
        post-union plan (:func:`~repro.optimizer.cost.prefer_sharded`).

        Returns ``None`` when no enforcer applies — or when the enforced
        plan's total cost reaches *limit*, i.e. it provably cannot beat
        the best alternative already known to the caller.
        """
        if plan.total_cost >= limit:
            return None
        group = group or self.groups.root
        eq = group.eq
        target = group.goal(required)[0]
        if not target or plan.order.satisfies(target, eq):
            return plan
        translated = self._translate_order(target, plan.schema, eq)
        if translated is None:
            return None
        partial_ok = self.config.partial_sort_enforcers
        sort = self.builder.sort(plan, translated, full=not partial_ok, eq=eq)
        # (An equivalence-collapsed *translated* may already hold.)
        if sort is not plan and self.config.parallelism > 1:
            sort = self._sharded_enforcement(sort, partial_ok, eq) or sort
        return sort if sort.total_cost < limit else None

    # -- below the exchange: fan-outs, per-shard pipelines, gate + gather -------------
    def _fan_outs(self, chain: PhysicalPlan, contiguous: bool = True,
                  ranged: bool = True) -> Iterable[tuple]:
        """The ways to shard *chain* at ``parallelism > 1`` (callers ask at
        no other) — none unless it is a unary chain over a scan — each as
        ``(views, range_table)``: the statistics at the chain's output, one
        view per shard, and ``None`` for *contiguous* equal shards, else
        the table whose declared *ranged* partitions the shards are."""
        k = self.config.parallelism
        scan = enforcement_chain_scan(chain)
        if scan is None:
            return
        table = self.catalog.table(scan.arg("table"))
        if contiguous and shardable(table, k):
            yield self._shard_views(chain, table, table.shard_stats(k), k), None
        if ranged and range_shardable(table):
            yield self._shard_views(chain, table, table.partition_stats(),
                                    table.partitioning.num_partitions), table

    def _shard_views(self, chain: PhysicalPlan, table, per_table,
                     k: int) -> list[StatsView]:
        """Measured per-shard table statistics carried to the chain output
        *chain*: the chain's cumulative selectivity is applied to each
        shard's real row count, and per-shard distinct counts come from
        the measured boundaries — the numbers that drive per-shard
        partial-sort segment counts and spill predictions.  Unmeasured
        (*per_table* is ``None``): the uniform ``scaled(1/k)`` estimate."""
        if per_table is None:
            return [chain.stats.scaled(1.0 / k) for _ in range(k)]
        total = max(1.0, float(table.stats.num_rows))
        selectivity = min(1.0, chain.stats.N / total)
        subset = set(chain.schema.names) <= set(table.schema.names)
        views = []
        for shard_stats in per_table:
            view = StatsView.of_table(table.schema, shard_stats, self.eq)
            view = view.scaled(selectivity)
            if subset:
                view = view.projected(list(chain.schema.names))
            views.append(view)
        return views

    def _shards_of(self, chain: PhysicalPlan, views: list[StatsView],
                   range_table, order: Optional[SortOrder] = None,
                   full: bool = False, eq: Optional[AttributeEquivalence] = None
                   ) -> list[PhysicalPlan]:
        """*chain* once per shard of a fan-out, each copy — if an *order*
        is to be enforced above it — under the chain's enforcer over that
        shard (*full*, *eq* as for :meth:`PlanBuilder.sort`), priced on
        the shard's view."""
        total_rows = sum(v.N for v in views) or 1.0
        shards = []
        for i, view in enumerate(views):
            shard = self.builder.shard_of(chain, len(views), i,
                                          view.N / total_rows, range_table)
            if order is not None:
                shard = self.builder.sort(shard, order, full, eq, on=view)
            shards.append(shard)
        return shards

    def _gathered(self, nodes: list[PhysicalPlan], disjoint: bool,
                  unsharded: PhysicalPlan,
                  finish: Optional[Callable] = None) -> Optional[PhysicalPlan]:
        """The per-shard operator *nodes* under their gather on
        *unsharded*'s order (:meth:`PlanBuilder.gather`), or ``None``
        unless the assembled plan beats the *unsharded* operator it
        replaces: ties resolve to the simpler unsharded plan
        (:func:`prefer_sharded`).  *finish* says the shards emit *partial*
        results (a row per per-shard group or distinct value): the gather
        carries the sum of their counts and ``finish(gather)`` is the
        operator above it that folds what straddled shard boundaries."""
        stats = unsharded.stats
        if finish is not None:
            stats = stats.with_rows(sum(node.stats.N for node in nodes))
        plan = self.builder.gather(nodes, unsharded.order, stats, disjoint)
        if finish is not None:
            plan = finish(plan)
        return (plan if prefer_sharded(plan.total_cost, unsharded.total_cost)
                else None)

    def _sharded_enforcement(self, unsharded: PhysicalPlan, partial_ok: bool,
                             eq: AttributeEquivalence
                             ) -> Optional[PhysicalPlan]:
        """The cheapest below-the-exchange placement of the enforcer
        *unsharded* — contiguous equal shards or declared range
        partitions, each priced with measured per-shard statistics where
        available — or ``None`` when the classic post-union sort wins
        (ties resolve to post-union via :func:`prefer_sharded`).  Decided
        on the (cheap) cost estimates first: the k-shard plan tree is
        only materialised when a placement actually wins."""
        chain, translated = unsharded.children[0], unsharded.order
        best = None
        for views, table in self._fan_outs(chain):
            disjoint = (table is not None and
                        translated.as_tuple[0] == table.partitioning.column)
            est = chain.total_cost + self.builder.cost.sharded_coe(
                chain.stats, chain.order, translated, len(views),
                partial_enabled=partial_ok, shard_stats=views,
                disjoint_merge=disjoint)
            if table is not None and not table.partition_contiguous:
                # Non-contiguous partitions each re-read the whole table.
                est += ((len(views) - 1)
                        * enforcement_chain_scan(chain).self_cost)
            if best is None or est < best[0]:
                best = est, views, table, disjoint
        if best is None or not prefer_sharded(best[0], unsharded.total_cost):
            return None
        _, views, table, disjoint = best
        shards = self._shards_of(chain, views, table, translated,
                                 not partial_ok, eq)
        return self._gathered(shards, disjoint, unsharded)

    def _and_sharded(self, unsharded: PhysicalPlan, construct: Callable,
                     fan: Callable, finish: Optional[Callable] = None
                     ) -> Iterable[PhysicalPlan]:
        """The *unsharded* operator (``construct`` over its inputs), then
        — when planning for a fan-out — its below-the-exchange form if it
        applies and wins: *construct* over each shard's inputs, gathered.

        ``fan()`` says whether it applies (the site's guard) and how the
        inputs fan out (:meth:`_sorted_shards_of`, :meth:`_copartitions`):
        per shard the inputs, the measured statistics *construct* takes
        to price them ``on``, if any, and the rows they weigh in with.
        Without a *finish* (see :meth:`_gathered`) the shards partition
        the operator's output, so each copy is told its ``stats``: the
        unsharded estimate apportioned by weight.  With one they emit
        partial results, estimated from the shard by *construct* itself.
        """
        yield unsharded
        fanned = self.config.parallelism > 1 and fan()
        if not fanned:
            return
        shards, disjoint = fanned
        total = sum(rows for _, _, rows in shards) or 1.0
        nodes = []
        for inputs, on, rows in shards:
            explicit = {} if on is None else {"on": on}
            if finish is None:
                explicit["stats"] = unsharded.stats.scaled(rows / total)
            nodes.append(construct(*inputs, **explicit))
        sharded = self._gathered(nodes, disjoint, unsharded, finish)
        if sharded is not None:
            yield sharded

    def _sorted_shards_of(self, plan: PhysicalPlan, eq: AttributeEquivalence,
                          *replicated: PhysicalPlan,
                          leading: Optional[SortOrder] = None):
        """Fan out an operator's sorted first input *plan* — per-shard
        sorted pipelines delivering its order, the shards a per-shard
        join, aggregate or DISTINCT builds on — every shard next to the
        whole of the *replicated* other inputs (a replicated subtree
        appears once per shard in the plan, so its replication cost is
        charged naturally by ``total_cost``).

        Two shapes qualify: a plan whose enforcer was already placed per
        shard (``MergeExchange`` — reuse its children, dropping the
        pre-operator merge, and their disjointness on its leading
        attribute), and a ``Sort``/``PartialSort`` over a contiguously
        shardable chain (shard the chain and apply the same enforcer to
        each shard; *eq* is what it was matched under, its goal group's).
        Returns ``None`` for everything else.  *leading* is the order the
        gather merges on when its leading attribute must literally be
        the shards' for their disjointness to carry over."""
        if plan.op == "MergeExchange":
            shards, disjoint = plan.children, bool(plan.arg("disjoint", False))
        elif plan.op in ("Sort", "PartialSort"):
            chain = plan.children[0]
            fan_out = next(self._fan_outs(chain, ranged=False), None)
            if fan_out is None:
                return None
            shards, disjoint = self._shards_of(
                chain, *fan_out, plan.order, plan.op == "Sort", eq), False
        else:
            return None
        if leading is not None:
            disjoint = (disjoint and
                        plan.order.as_tuple[:1] == leading.as_tuple[:1])
        return [((shard, *replicated), None, shard.stats.N)
                for shard in shards], disjoint

    def _copartitions(self, left: PhysicalPlan, right: PhysicalPlan,
                      pairs: tuple[tuple[str, str], ...]):
        """Fan out both inputs of a join along their tables' declared
        range partitions — when both are partitioned on one of the join's
        equality *pairs* with identical bounds, so partition *i* of the
        left can only match partition *i* of the right.  The copies are
        priced on the per-partition views and weigh in with the
        per-partition row-count product."""
        fan_outs = [next(self._fan_outs(side, contiguous=False), None)
                    for side in (left, right)]
        if None in fan_outs:
            return None
        (lviews, ltable), (rviews, rtable) = fan_outs
        lp, rp = ltable.partitioning, rtable.partitioning
        if lp.bounds != rp.bounds or (lp.column, rp.column) not in pairs:
            return None
        return [((lshard, rshard), (lview, rview), lview.N * rview.N)
                for lshard, rshard, lview, rview in zip(
                    self._shards_of(left, lviews, ltable),
                    self._shards_of(right, rviews, rtable),
                    lviews, rviews)], False

    def _translate_order(self, order: SortOrder, schema: Schema,
                         eq: AttributeEquivalence) -> Optional[SortOrder]:
        """Express *order* in *schema*'s column names via the goal
        subtree's own equivalences *eq*."""
        out: list[str] = []
        for attr in order:
            if attr in schema:
                out.append(attr)
                continue
            mate = next((c for c in schema.names if eq.same(c, attr)), None)
            if mate is None:
                return None
            if mate not in out:
                out.append(mate)
        return SortOrder(out)

    def ensure_schema(self, plan: PhysicalPlan, expr: LogicalExpr) -> PhysicalPlan:
        """Project the final plan to the logical output schema when a
        covering-index scan or join swap changed column order."""
        target = self.groups.of(expr).schema
        if plan.schema.names == target.names:
            return plan
        if not plan.schema.has_all(target.names):
            return plan  # narrower logical projection not expressible
        return self.builder.project(plan, target.names)

    # -- candidate generation ----------------------------------------------------------------
    def _native_candidates(self, expr: LogicalExpr, required: SortOrder,
                           bound: _Bound) -> Iterable[PhysicalPlan]:
        build = self.builder
        if isinstance(expr, BaseRelation):
            yield build.table_scan(expr.table_name)
            used = self.annotator.used_attrs(expr.table_name)
            for index in self.catalog.indexes_of(expr.table_name):
                if index.covers(used):
                    yield build.covering_scan(expr.table_name, index.name)
        elif isinstance(expr, Select):
            yield from self._unary_candidates(
                expr, required, bound, self._nameable(required, expr.child),
                expr.predicate.columns(),
                lambda child: build.filter(child, expr.predicate))
        elif isinstance(expr, Project):
            yield from self._unary_candidates(
                expr, required, bound, set(required) <= set(expr.columns),
                expr.columns, lambda child: build.project(child, expr.columns))
        elif isinstance(expr, Compute):
            yield from self._unary_candidates(
                expr, required, bound, self._nameable(required, expr.child),
                (), lambda child: build.compute(child, expr.outputs))
        elif isinstance(expr, Join):
            yield from self._join_candidates(expr, required, bound)
        elif isinstance(expr, GroupBy):
            yield from self._group_candidates(expr, required, bound)
        elif isinstance(expr, Distinct):
            yield from self._distinct_candidates(expr, required, bound)
        elif isinstance(expr, Union):
            yield from self._union_candidates(expr, required, bound)
        elif isinstance(expr, OrderBy):
            plan = self.optimize_goal(expr.child, expr.order, bound.value)
            if plan is not None:
                yield plan
        elif isinstance(expr, Limit):
            child = self.optimize_goal(expr.child, required, bound.value)
            if child is not None:
                yield build.limit(child, expr.k)
        else:
            raise TypeError(f"cannot plan {type(expr).__name__}")

    def _nameable(self, required: SortOrder, child: LogicalExpr) -> bool:
        """Whether *child*'s output can express every attribute of
        *required* (by a column or an equivalent of one)."""
        columns = self.groups.of(child).schema.names
        return all(any(self.eq.same(a, c) for c in columns) for a in required)

    def _unary_candidates(self, expr: LogicalExpr, required: SortOrder,
                          bound: _Bound, pushable: bool,
                          needs: Iterable[str], construct: Callable
                          ) -> Iterable[PhysicalPlan]:
        """An order-preserving unary — *construct* over its child's plan —
        once per child order worth requesting: ε (sort above, fewer
        rows) and, when *pushable*, the requirement itself (sort below,
        smaller input); the enforcer framework arbitrates by cost.  A
        child plan without the columns the operator *needs* is skipped."""
        child_reqs = [EMPTY_ORDER]
        if pushable and required:
            child_reqs.append(required)
        for child_req in child_reqs:
            child = self.optimize_goal(expr.child, child_req, bound.value)
            if child is not None and child.schema.has_all(needs):
                yield construct(child)

    def _input_plans(self, expr: LogicalExpr, left_required: SortOrder,
                     right_required: SortOrder, bound: _Bound):
        """Cheapest plans of a binary node's two inputs in the required
        orders — the right within what the left leaves of the budget —
        or ``None`` if either goal has none within it."""
        left = self.optimize_goal(expr.left, left_required, bound.value)
        if left is None:
            return None
        right = self.optimize_goal(expr.right, right_required,
                                   bound.value - left.total_cost)
        return None if right is None else (left, right)

    # -- joins -------------------------------------------------------------------------------
    def _join_candidates(self, expr: Join, required: SortOrder,
                         bound: _Bound) -> Iterable[PhysicalPlan]:
        pairs = expr.predicate.pairs
        # A permutation may name a pair by either side's attribute.
        right_of = {right: right for _, right in pairs} | dict(pairs)
        left_eq = self.groups.of(expr.left).eq
        outer = expr.join_type != "inner"
        for perm in self.strategy.join_orders(self.order_ctx, expr, required):
            partners = [(a, right_of[a]) for a in perm]
            # A strategy reduces its permutations under the query's
            # equivalences, so one may leave a pair out (its left
            # attribute equals one already in the key — on the left
            # input's rows; the right attributes need not be equal).
            # The pair is still part of the predicate: an inner join
            # enforces it on the merged rows (``merge_join`` does, told
            # the logical join); an outer join must decide a match on
            # every pair, so there it rejoins the merge key.
            if outer and len(partners) < len(pairs):
                keyed = {right for _, right in partners}
                partners += [pair for pair in pairs if pair[1] not in keyed]
                perm = SortOrder(tuple(left for left, _ in partners))
            right_perm = SortOrder(tuple(right for _, right in partners))
            inputs = self._input_plans(expr, perm, right_perm, bound)
            if inputs is None:
                continue
            left_plan, right_plan = inputs

            def merge_join(left, right, stats=None):
                return self.builder.merge_join(
                    left, right, partners, expr.join_type, sort_inputs=False,
                    logical=expr, stats=stats)
            # Broadcast: shard the sorted left input and replicate the
            # right — it only wins when the per-shard sort savings on a
            # big left side beat re-reading a small right side k−1 extra
            # times.  Valid for inner and LEFT OUTER joins: the shards
            # partition the left rows, so every join output (and every
            # left-padded row) is produced exactly once; a FULL OUTER
            # join would duplicate right-unmatched rows per shard.  The
            # gather stays heap-free only when the shards were range
            # partitions disjoint on the permutation's leading attribute.
            yield from self._and_sharded(
                merge_join(left_plan, right_plan), merge_join,
                lambda: expr.join_type != "full" and self._sorted_shards_of(
                    left_plan, left_eq, right_plan, leading=perm))
        if self.config.enable_hash_join:
            inputs = self._input_plans(expr, EMPTY_ORDER, EMPTY_ORDER, bound)
            if inputs is not None:
                def hash_join(left, right, stats=None, on=None):
                    return self.builder.hash_join(left, right, pairs,
                                                  expr.join_type, stats, on)
                # The classic partitioned hash join.  Valid for every join
                # type (unlike the broadcast, nothing is replicated), and
                # the win is the Grace term: per-partition builds that fit
                # in sort memory skip the partition-spill I/O a monolithic
                # build pays.  Hash output is unordered anyway, so the
                # gather is a plain exchange union, costing nothing.
                yield from self._and_sharded(
                    hash_join(*inputs), hash_join,
                    lambda: self._copartitions(*inputs, pairs))

    # -- aggregation --------------------------------------------------------------------------
    def _group_candidates(self, expr: GroupBy, required: SortOrder,
                          bound: _Bound) -> Iterable[PhysicalPlan]:
        group_cols = list(expr.group_columns)
        needs = set(group_cols).union(*(a.columns() for a in expr.aggregates))
        child_eq = self.groups.of(expr.child).eq
        # Reduce with this subtree's FDs only: a sibling branch's constant
        # filter must not shrink the sort key a streaming aggregate groups
        # on (wrong merges of distinct groups otherwise).
        reduced = list(self.groups.of(expr).fds.reduce_group_columns(group_cols))
        for perm in self.strategy.group_orders(self.order_ctx, expr, reduced,
                                               required):
            child = self.optimize_goal(expr.child, perm, bound.value)
            if child is None or not child.schema.has_all(needs):
                continue

            def aggregate(shard):
                return self.builder.sort_aggregate(
                    shard, perm, expr.aggregates, group_cols, logical=expr)
            whole = aggregate(child)
            # Per shard: each aggregates its (sorted) slice, the merge
            # gathers one *partial* row per per-shard group (real
            # per-shard distinct counts — under clustering skew far fewer
            # than the uniform ``k·D/k = D``), and a SortedGroupCombine
            # folds the groups that straddled shard boundaries.  Only
            # aggregates with an exact combiner qualify (``avg`` would
            # need a sum+count split), so recombined results are
            # bit-identical to the unsharded plan.
            yield from self._and_sharded(
                whole, aggregate,
                lambda: combinable(expr.aggregates)
                and self._sorted_shards_of(child, child_eq),
                finish=lambda gather: self.builder.sorted_combine(
                    gather, group_cols, expr.aggregates, whole.stats))
        if self.config.enable_hash_aggregate:
            child = self.optimize_goal(expr.child, EMPTY_ORDER, bound.value)
            if child is not None and child.schema.has_all(needs):
                yield self.builder.hash_aggregate(child, group_cols,
                                                  expr.aggregates)

    # -- set operations --------------------------------------------------------------------------
    @staticmethod
    def _complete_set_order(perm: SortOrder, columns: list[str],
                            equivalences: list) -> Optional[SortOrder]:
        """Extend a (possibly equivalence-collapsed) permutation to cover
        every output column, as sorted dedup operators require.

        Interesting-order strategies canonicalize attributes, so a perm
        over a union/distinct of joined inputs may omit columns equated
        by a join (``t2_c1 ≡ t1_c1``).  Appending such a column keeps the
        stream genuinely sorted **only if the equality holds inside the
        subtree producing the rows** — each entry of *equivalences* is a
        ``(rename, eq)`` pair for one child subtree (identity rename for
        a single child), and every missing column must be equivalent to
        some perm member under all of them.  Returns ``None`` when a
        missing column cannot be soundly appended (the hash-based
        candidates still cover the goal)."""
        missing = [c for c in columns if c not in perm.attrs()]
        if not missing:
            return perm
        for c in missing:
            ok = all(any(eq.same(rename.get(c, c), rename.get(a, a))
                         for a in perm)
                     for rename, eq in equivalences)
            if not ok:
                return None
        return SortOrder(list(perm) + missing)

    def _distinct_candidates(self, expr: Distinct, required: SortOrder,
                             bound: _Bound) -> Iterable[PhysicalPlan]:
        columns = list(self.groups.of(expr).schema.names)
        child_eq = self.groups.of(expr.child).eq
        for perm in self.strategy.set_orders(self.order_ctx, expr, columns,
                                             required):
            full_order = self._complete_set_order(perm, columns,
                                                  [({}, child_eq)])
            if full_order is None:
                continue
            child = self.optimize_goal(expr.child, perm, bound.value)
            if child is None:
                continue

            def dedup(shard, stats=None):
                return self.builder.dedup(shard, full_order, columns, stats)
            whole = dedup(child)
            # Per shard: each deduplicates its (sorted) slice, the
            # order-preserving merge gathers one row per per-shard
            # distinct value, and the same Dedup above the merge drops
            # duplicates that straddled shard boundaries — adjacent after
            # the merge, so the result is bit-identical to the unsharded
            # one.  Wins when in-shard duplicates shrink the merge input
            # (the DISTINCT analogue of the per-shard aggregation) or when
            # the per-shard enforcers below already avoided a spill.
            yield from self._and_sharded(
                whole, dedup, lambda: self._sorted_shards_of(child, child_eq),
                finish=lambda gather: dedup(gather, stats=whole.stats))
        child = self.optimize_goal(expr.child, EMPTY_ORDER, bound.value)
        if child is not None:
            yield self.builder.hash_dedup(child, columns)

    def _union_candidates(self, expr: Union, required: SortOrder,
                          bound: _Bound) -> Iterable[PhysicalPlan]:
        lgroup, rgroup = self.groups.of(expr.left), self.groups.of(expr.right)
        rename = dict(zip(lgroup.schema.names, rgroup.schema.names))
        columns = list(lgroup.schema.names)
        for perm in self.strategy.set_orders(self.order_ctx, expr, columns,
                                             required):
            full_order = self._complete_set_order(
                perm, columns, [({}, lgroup.eq), (rename, rgroup.eq)])
            if full_order is None:
                continue
            inputs = self._input_plans(expr, perm, perm.translate(rename),
                                       bound)
            if inputs is not None:
                yield self.builder.merge_union(*inputs, full_order,
                                               sort_inputs=False)
        inputs = self._input_plans(expr, EMPTY_ORDER, EMPTY_ORDER, bound)
        if inputs is not None:
            yield self.builder.hash_dedup(self.builder.union_all(*inputs),
                                          columns)
