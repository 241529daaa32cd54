"""Stage 3 — physical operator selection.

The cost-based Volcano search that turns one logical tree into the
cheapest physical plan guaranteeing a required sort order: native
candidate generation per logical operator, the paper's (partial) sort
enforcers, shard-aware enforcer/join/aggregate/distinct placement, and
the cost-bounded branch-and-bound memo with Columbia's re-search
discipline.

One :class:`PhysicalSelection` instance searches one candidate join
tree (stage 2 may produce several; the pipeline driver in
:mod:`repro.optimizer.volcano` runs one search per candidate and keeps
the cheapest plan).  The search is split the Cascades way: what is true
of a logical node's *result* lives once per group in the
:class:`~.groups.GroupTable`; the search itself only holds what depends
on a requested order — the memo of ``(group id, canonical order)``
goals and the plans under them.  See "Groups and goals" in
``docs/optimizer.md``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Optional

from ...core.interesting import OrderContext, OrderStrategy
from ...core.sort_order import (
    AttributeEquivalence,
    EMPTY_ORDER,
    SortOrder,
    longest_common_prefix,
)
from ...engine.aggregates import combinable
from ...engine.exchange import ORDER_PRESERVING_UNARY_OPS
from ...engine.scans import range_shardable, shardable
from ...expr.expressions import JoinPredicate
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
from ..cost import CostModel, prefer_sharded
from ..plans import PhysicalPlan, make_plan
from .groups import Group, GroupTable
from .pre_check import OptimizerConfig

#: Plan ops transparent to sharding — the engine's order-preserving
#: per-row unaries, by name (single source of truth: engine/exchange.py).
SHARD_TRANSPARENT_OPS = ORDER_PRESERVING_UNARY_OPS
_SHARDABLE_SCAN_OPS = ("TableScan", "ClusteringIndexScan")


def enforcement_chain_scan(plan: PhysicalPlan) -> Optional[PhysicalPlan]:
    """The scan under a chain of per-row, order-preserving unaries, or
    ``None`` when *plan* is not such a chain.  Sharded execution of a
    chain over one shardable scan provably partitions the unsharded
    stream — the shape every below-the-exchange placement builds on."""
    node = plan
    while node.op in SHARD_TRANSPARENT_OPS and len(node.children) == 1:
        node = node.children[0]
    return node if node.op in _SHARDABLE_SCAN_OPS else None


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
        self.cost_model = CostModel(catalog.params, self.eq)
        self.order_ctx = OrderContext(self.favorable, self.fds, self.eq)
        #: Goal → exact optimum, keyed ``(group id, canonical order)``.
        self._memo: dict[tuple, PhysicalPlan] = {}
        #: See :meth:`_once`.
        self._derived: dict[tuple, tuple] = {}
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

    def _once(self, fn, *inputs):
        """``fn(*inputs)``, computed once per distinct *inputs* objects.
        Statistics and schemas are immutable and shared by the plans
        built over them (an enforcer carries its input's), so what is a
        function of them — join estimates, join schemas — is the same
        for all the permutations requesting it.  The entry holds
        *inputs*, so an ``id()`` is never reused as a key; the key holds
        a method's function, not the method — a bound method of the
        search would make the search reference itself."""
        key = (getattr(fn, "__func__", fn), *map(id, inputs))
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = (fn(*inputs), inputs)
        return hit[0]

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
        prefix = longest_common_prefix(translated, plan.order, eq)
        cost = self.cost_model.coe(plan.stats, plan.order, translated,
                                   partial_enabled=partial_ok)
        if prefix and partial_ok:
            sort = make_plan("PartialSort", plan.schema, translated, plan.stats,
                             cost, [plan], prefix=prefix, algorithm="mrs")
        else:
            sort = make_plan("Sort", plan.schema, translated, plan.stats, cost,
                             [plan], prefix=EMPTY_ORDER, algorithm="srs")
        if self.config.parallelism > 1:
            sort = self._sharded_enforcement(sort, partial_ok) or sort
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

    def _shard_clone(self, node: PhysicalPlan, shard_count: int,
                     shard_index: int, share: float,
                     range_table=None) -> PhysicalPlan:
        """One shard's copy of a shardable subtree: the scan leaf becomes
        a ``ShardedScan`` (or ``RangePartitionScan``) and every node
        carries its *share* of the rows and cost, so the k shards together
        cost exactly what the unsharded subtree did — except the scan leaf
        of a *non-contiguous* range partition, which reads the whole table
        and keeps the full scan cost (the real price of range-sharding a
        layout that doesn't match the spec)."""
        stats = node.stats.scaled(share)
        if node.op in _SHARDABLE_SCAN_OPS:
            if range_table is not None:
                leaf_cost = (node.self_cost * share
                             if range_table.partition_contiguous
                             else node.self_cost)
                return make_plan("RangePartitionScan", node.schema, node.order,
                                 stats, leaf_cost, table=node.arg("table"),
                                 partition_index=shard_index,
                                 partition_count=shard_count)
            return make_plan("ShardedScan", node.schema, node.order, stats,
                             node.self_cost * share,
                             table=node.arg("table"),
                             shard_count=shard_count, shard_index=shard_index)
        child = self._shard_clone(node.children[0], shard_count, shard_index,
                                  share, range_table)
        return replace(node, stats=stats, self_cost=node.self_cost * share,
                       children=(child,))

    def _shards_of(self, chain: PhysicalPlan, views: list[StatsView],
                   range_table, enforcer: Optional[PhysicalPlan] = None,
                   partial: bool = False) -> list[PhysicalPlan]:
        """*chain* once per shard of a fan-out, each copy under its own
        copy of *enforcer* (the unsharded enforcer over *chain*, if any)
        priced on its shard's view; *partial* as for ``coe``."""
        total_rows = sum(v.N for v in views) or 1.0
        shards = []
        for i, view in enumerate(views):
            shard = self._shard_clone(chain, len(views), i,
                                      view.N / total_rows, range_table)
            if enforcer is not None:
                cost = self.cost_model.coe(view, chain.order, enforcer.order,
                                           partial_enabled=partial)
                # Carry the *measured* per-shard statistics on the enforcer
                # node (schema permitting) so downstream per-shard operators
                # (joins, aggregates) are priced with real distinct counts.
                stats = (view if list(view.schema.names)
                         == list(shard.schema.names) else shard.stats)
                shard = replace(enforcer, stats=stats, self_cost=cost,
                                children=(shard,))
            shards.append(shard)
        return shards

    def _sorted_shards_of(self, plan: PhysicalPlan):
        """Per-shard sorted pipelines delivering *plan*'s order, and
        whether they are mutually disjoint on its leading attribute — the
        shards a per-shard join, aggregate or DISTINCT builds on.

        Two shapes qualify: a plan whose enforcer was already placed per
        shard (``MergeExchange`` — reuse its children, dropping the
        pre-operator merge), and a ``Sort``/``PartialSort`` over a
        contiguously shardable chain (shard the chain and replicate the
        enforcer).  Returns ``None`` for everything else.
        """
        if plan.op == "MergeExchange":
            return list(plan.children), bool(plan.arg("disjoint", False))
        if plan.op in ("Sort", "PartialSort"):
            chain = plan.children[0]
            fan_out = next(self._fan_outs(chain, ranged=False), None)
            if fan_out is not None:
                return self._shards_of(chain, *fan_out, plan,
                                       plan.op == "PartialSort"), False
        return None

    def _gathered(self, nodes: list[PhysicalPlan], disjoint: bool,
                  unsharded: PhysicalPlan,
                  finish: Optional[PhysicalPlan] = None
                  ) -> Optional[PhysicalPlan]:
        """The per-shard operator *nodes* under their gather — an
        order-preserving ``MergeExchange`` on *unsharded*'s order, or for
        ε a cost-free ``ExchangeUnion`` — or ``None`` unless the assembled
        plan beats the *unsharded* operator it replaces: ties resolve to
        the simpler unsharded plan (:func:`prefer_sharded`).  *finish*
        says the shards emit *partial* results (a row per per-shard group
        or distinct value): the gather carries the sum of their counts and
        a copy of *finish* above it folds what straddled shard boundaries."""
        stats, order = unsharded.stats, unsharded.order
        if finish is not None:
            stats = stats.with_rows(sum(node.stats.N for node in nodes))
        if order:
            cost = self.cost_model.merge_exchange(stats.N, len(nodes),
                                                  disjoint=disjoint)
            plan = make_plan("MergeExchange", nodes[0].schema, order, stats,
                             cost, nodes, disjoint=disjoint)
        else:
            plan = make_plan("ExchangeUnion", nodes[0].schema, order, stats,
                             0.0, nodes)
        if finish is not None:
            plan = replace(finish, children=(plan,),
                           self_cost=self.cost_model.combine_groups(stats.N))
        return (plan if prefer_sharded(plan.total_cost, unsharded.total_cost)
                else None)

    def _sharded_enforcement(self, unsharded: PhysicalPlan,
                             partial_ok: bool) -> Optional[PhysicalPlan]:
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
            est = chain.total_cost + self.cost_model.sharded_coe(
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
        shards = self._shards_of(chain, views, table, unsharded, partial_ok)
        return self._gathered(shards, disjoint, unsharded)

    def _and_sharded(self, unsharded: PhysicalPlan, alternative,
                     *args) -> Iterable[PhysicalPlan]:
        """The *unsharded* operator, then — when planning for a fan-out —
        its below-the-exchange *alternative* if it applies and wins."""
        yield unsharded
        if self.config.parallelism > 1:
            sharded = alternative(unsharded, *args)
            if sharded is not None:
                yield sharded

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
        cost = self.cost_model.project(plan.stats)
        schema = plan.schema.project(list(target.names))
        order = plan.order.restrict_prefix_to(target.names, self.eq)
        return make_plan("Project", schema, order, plan.stats.projected(list(target.names)),
                         cost, [plan], columns=tuple(target.names))

    # -- candidate generation ----------------------------------------------------------------
    def _native_candidates(self, expr: LogicalExpr, required: SortOrder,
                           bound: _Bound) -> Iterable[PhysicalPlan]:
        if isinstance(expr, BaseRelation):
            yield from self._scan_candidates(expr)
        elif isinstance(expr, Select):
            yield from self._select_candidates(expr, required, bound)
        elif isinstance(expr, Project):
            yield from self._project_candidates(expr, required, bound)
        elif isinstance(expr, Compute):
            yield from self._compute_candidates(expr, required, bound)
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
            yield from self._limit_candidates(expr, required, bound)
        else:
            raise TypeError(f"cannot plan {type(expr).__name__}")

    def _scan_candidates(self, expr: BaseRelation) -> Iterable[PhysicalPlan]:
        table = self.catalog.table(expr.table_name)
        stats = self._once(self._table_stats, table)
        yield make_plan("TableScan", table.schema, table.clustering_order,
                        stats, self.cost_model.table_scan(stats),
                        table=table.name)
        used = self.annotator.used_attrs(expr.table_name)
        for index in self.catalog.indexes_of(expr.table_name):
            if not index.covers(used):
                continue
            leaf_schema = index.leaf_schema
            leaf_stats = stats.projected(list(leaf_schema.names))
            cost = self.cost_model.index_scan(stats.N, index.entry_bytes())
            yield make_plan("CoveringIndexScan", leaf_schema, index.key,
                            leaf_stats, cost, table=table.name, index=index.name)

    def _table_stats(self, table) -> StatsView:
        keys = [table.primary_key] if table.primary_key else []
        return StatsView.of_table(table.schema, table.stats, self.eq, keys)

    def _child_requirements(self, required: SortOrder,
                            pushable: bool) -> list[SortOrder]:
        """Child orders worth requesting for order-preserving unaries:
        the requirement itself (sort below, smaller input) and ε (sort
        above, fewer rows) — the enforcer framework arbitrates by cost."""
        reqs = [EMPTY_ORDER]
        if pushable and required:
            reqs.append(required)
        return reqs

    def _select_candidates(self, expr: Select, required: SortOrder,
                           bound: _Bound) -> Iterable[PhysicalPlan]:
        child_schema_cols = set(self.groups.of(expr.child).schema.names)
        pushable = all(any(self.eq.same(a, c) for c in child_schema_cols)
                       for a in required)
        for child_req in self._child_requirements(required, pushable):
            child = self.optimize_goal(expr.child, child_req, bound.value)
            if child is None or not child.schema.has_all(expr.predicate.columns()):
                continue
            stats = child.stats.scaled(expr.predicate.selectivity(child.stats))
            yield make_plan("Filter", child.schema, child.order, stats,
                            self.cost_model.filter(child.stats), [child],
                            predicate=expr.predicate)

    def _project_candidates(self, expr: Project, required: SortOrder,
                            bound: _Bound) -> Iterable[PhysicalPlan]:
        pushable = set(required) <= set(expr.columns)
        for child_req in self._child_requirements(required, pushable):
            child = self.optimize_goal(expr.child, child_req, bound.value)
            if child is None or not child.schema.has_all(expr.columns):
                continue
            schema = child.schema.project(list(expr.columns))
            order = child.order.restrict_prefix_to(expr.columns, self.eq)
            yield make_plan("Project", schema, order,
                            child.stats.projected(list(expr.columns)),
                            self.cost_model.project(child.stats), [child],
                            columns=tuple(expr.columns))

    def _compute_candidates(self, expr: Compute, required: SortOrder,
                            bound: _Bound) -> Iterable[PhysicalPlan]:
        child_cols = set(self.groups.of(expr.child).schema.names)
        pushable = all(any(self.eq.same(a, c) for c in child_cols)
                       for a in required)
        for child_req in self._child_requirements(required, pushable):
            child = self.optimize_goal(expr.child, child_req, bound.value)
            if child is None:
                continue
            schema = Schema(list(child.schema)
                            + [spec for spec in self.groups.of(expr).schema
                               if spec.name not in child.schema])
            stats = StatsView(schema, child.stats.N,
                              {c: child.stats.distinct_of(c)
                               for c in child.schema.names}, self.eq)
            yield make_plan("Compute", schema, child.order, stats,
                            self.cost_model.project(child.stats), [child],
                            outputs=tuple(expr.outputs))

    # -- joins -------------------------------------------------------------------------------
    def _join_candidates(self, expr: Join, required: SortOrder,
                         bound: _Bound) -> Iterable[PhysicalPlan]:
        pairs = list(expr.predicate.pairs)
        right_for_left = dict(pairs)
        orders = self.strategy.join_orders(self.order_ctx, expr, required)
        for perm in orders:
            partners = [(a, right_for_left.get(a, self._right_partner(a, pairs)))
                        for a in perm]
            right_perm = SortOrder(tuple(right for _, right in partners))
            left_plan = self.optimize_goal(expr.left, perm, bound.value)
            if left_plan is None:
                continue
            right_plan = self.optimize_goal(expr.right, right_perm,
                                            bound.value - left_plan.total_cost)
            if right_plan is None:
                continue
            reordered = JoinPredicate(partners)
            stats, schema = self._join_output(expr, left_plan, right_plan)
            cost = self.cost_model.merge_join(left_plan.stats, right_plan.stats,
                                              stats.N)
            # FULL OUTER pads left key columns of right-unmatched rows
            # with NULLs mid-stream, so its output guarantees no order
            # (mirrors engine/joins.py — the two must agree or enforcers
            # get skipped above plans that cannot honour them).
            out_order = EMPTY_ORDER if expr.join_type == "full" else perm
            yield from self._and_sharded(
                make_plan("MergeJoin", schema, out_order, stats, cost,
                          [left_plan, right_plan], predicate=reordered,
                          join_type=expr.join_type, logical=expr),
                self._broadcast_join_alternative)
        if self.config.enable_hash_join:
            left_plan = self.optimize_goal(expr.left, EMPTY_ORDER, bound.value)
            right_plan = (self.optimize_goal(expr.right, EMPTY_ORDER,
                                             bound.value - left_plan.total_cost)
                          if left_plan is not None else None)
            if left_plan is not None and right_plan is not None:
                stats, schema = self._join_output(expr, left_plan, right_plan)
                cost = self.cost_model.hash_join(left_plan.stats,
                                                 right_plan.stats, stats.N)
                yield from self._and_sharded(
                    make_plan("HashJoin", schema, EMPTY_ORDER, stats, cost,
                              [left_plan, right_plan],
                              predicate=expr.predicate,
                              join_type=expr.join_type),
                    self._copartitioned_hash_join)

    @staticmethod
    def _right_partner(attr: str, pairs: list[tuple[str, str]]) -> str:
        for l, r in pairs:
            if l == attr or r == attr:
                return r
        raise KeyError(attr)

    def _join_output(self, expr: Join, left: PhysicalPlan,
                     right: PhysicalPlan) -> tuple[StatsView, Schema]:
        """Output statistics and schema of joining the two plans."""
        return (self._once(self._join_stats, expr, left.stats, right.stats),
                self._once(Schema.concat, left.schema, right.schema))

    def _join_stats(self, expr: Join, left: StatsView,
                    right: StatsView) -> StatsView:
        joined = left.join(right, list(expr.predicate.pairs), self.eq)
        if expr.join_type == "left":
            return joined.with_rows(max(joined.N, left.N))
        if expr.join_type == "full":
            return joined.with_rows(max(joined.N, left.N, right.N))
        return joined

    # -- sharded joins -----------------------------------------------------------------
    def _broadcast_join_alternative(self, unsharded: PhysicalPlan
                                    ) -> Optional[PhysicalPlan]:
        """Shard the sorted left input and broadcast the right: per-shard
        merge joins gathered by an order-preserving merge.

        Valid for inner and LEFT OUTER joins — the shards partition the
        left rows, so every join output (and every left-padded row) is
        produced exactly once; a FULL OUTER join would duplicate
        right-unmatched rows per shard.  The right subtree appears once
        per shard in the plan, so its replication cost is charged
        naturally by ``total_cost`` — the alternative only wins when the
        per-shard sort savings on a big left side beat re-reading a small
        broadcast side k−1 extra times.
        """
        left_plan, right_plan = unsharded.children
        sharded = (self._sorted_shards_of(left_plan)
                   if unsharded.arg("join_type") != "full" else None)
        if sharded is None:
            return None
        shards, disjoint = sharded
        perm, stats = unsharded.order, unsharded.stats
        # The join merge stays heap-free only when the shards were range
        # partitions disjoint on the join permutation's leading attribute.
        disjoint = (disjoint and bool(perm)
                    and left_plan.order.as_tuple[:1] == perm.as_tuple[:1])
        # Join output apportioned by each shard's share of the left rows.
        total_left = sum(s.stats.N for s in shards) or 1.0
        weights = [s.stats.N / total_left for s in shards]
        joins = [
            replace(unsharded, stats=stats.scaled(w),
                    self_cost=self.cost_model.merge_join(
                        shard.stats, right_plan.stats, stats.N * w),
                    children=(shard, right_plan))
            for shard, w in zip(shards, weights)]
        return self._gathered(joins, disjoint, unsharded)

    def _copartitioned_hash_join(self, unsharded: PhysicalPlan
                                 ) -> Optional[PhysicalPlan]:
        """Co-partitioned hash join for range-partitioned inputs: both
        tables are partitioned on a join-equality pair with identical
        bounds, so partition *i* of the left can only match partition *i*
        of the right — the classic partitioned hash join.  Valid for
        every join type (unlike the broadcast, nothing is replicated),
        and the win is the Grace term: per-partition builds that fit in
        sort memory skip the partition-spill I/O a monolithic build pays.
        The gather is a plain exchange union (hash output is unordered
        anyway), costing nothing.
        """
        left_plan, right_plan = unsharded.children
        fan_outs = [next(self._fan_outs(side, contiguous=False), None)
                    for side in (left_plan, right_plan)]
        if None in fan_outs:
            return None
        (lviews, ltable), (rviews, rtable) = fan_outs
        lp, rp = ltable.partitioning, rtable.partitioning
        if (lp.bounds != rp.bounds or (lp.column, rp.column)
                not in unsharded.arg("predicate").pairs):
            return None
        stats = unsharded.stats
        # Join output apportioned by the per-partition row-count product.
        raw = [lv.N * rv.N for lv, rv in zip(lviews, rviews)]
        total_w = sum(raw) or 1.0
        weights = [w / total_w for w in raw]
        joins = [
            replace(unsharded, stats=stats.scaled(w),
                    self_cost=self.cost_model.hash_join(lv, rv, stats.N * w),
                    children=(lc, rc))
            for lc, rc, lv, rv, w in zip(
                self._shards_of(left_plan, lviews, ltable),
                self._shards_of(right_plan, rviews, rtable),
                lviews, rviews, weights)]
        return self._gathered(joins, False, unsharded)

    # -- aggregation --------------------------------------------------------------------------
    def _group_candidates(self, expr: GroupBy, required: SortOrder,
                          bound: _Bound) -> Iterable[PhysicalPlan]:
        group_cols = list(expr.group_columns)
        # Reduce with this subtree's FDs only: a sibling branch's constant
        # filter must not shrink the sort key a streaming aggregate groups
        # on (wrong merges of distinct groups otherwise).
        reduced = list(self.groups.of(expr).fds.reduce_group_columns(group_cols))
        for perm in self.strategy.group_orders(self.order_ctx, expr, reduced,
                                               required):
            child = self.optimize_goal(expr.child, perm, bound.value)
            if child is None:
                continue
            schema = self._agg_schema(expr, child.schema)
            if schema is None:
                continue
            yield from self._and_sharded(
                make_plan("SortAggregate", schema, perm,
                          child.stats.grouped(group_cols, schema),
                          self.cost_model.sort_aggregate(child.stats), [child],
                          group_columns=tuple(group_cols),
                          aggregates=tuple(expr.aggregates), logical=expr),
                self._sharded_agg_alternative)
        if self.config.enable_hash_aggregate:
            child = self.optimize_goal(expr.child, EMPTY_ORDER, bound.value)
            if child is None:
                return
            schema = self._agg_schema(expr, child.schema)
            if schema is not None:
                stats = child.stats.grouped(group_cols, schema)
                yield make_plan("HashAggregate", schema, EMPTY_ORDER, stats,
                                self.cost_model.hash_aggregate(child.stats, stats),
                                [child], group_columns=tuple(group_cols),
                                aggregates=tuple(expr.aggregates))

    def _sharded_agg_alternative(self, unsharded: PhysicalPlan
                                 ) -> Optional[PhysicalPlan]:
        """Per-shard sort aggregation under a merge with a final combine:
        each shard aggregates its slice (sorted per shard, so the whole
        enforcement win composes), the merge gathers one *partial* row
        per per-shard group (real per-shard distinct counts — under
        clustering skew far fewer than the uniform ``k·D/k = D``), and a
        :class:`SortedGroupCombine` folds the groups that straddled
        shard boundaries.  Only aggregates with an
        exact combiner qualify (``avg`` would need a sum+count split), so
        recombined results are bit-identical to the unsharded plan.
        """
        aggregates = unsharded.arg("aggregates")
        sharded = (self._sorted_shards_of(unsharded.children[0])
                   if combinable(aggregates) else None)
        if sharded is None:
            return None
        shards, disjoint = sharded
        group_cols = list(unsharded.arg("group_columns"))
        aggs = [
            replace(unsharded,
                    stats=shard.stats.grouped(group_cols, unsharded.schema),
                    self_cost=self.cost_model.sort_aggregate(shard.stats),
                    children=(shard,))
            for shard in shards]
        combine = make_plan("SortedCombine", unsharded.schema, unsharded.order,
                            unsharded.stats, 0.0,
                            group_columns=tuple(group_cols),
                            aggregates=aggregates)
        return self._gathered(aggs, disjoint, unsharded, combine)

    def _agg_schema(self, expr: GroupBy, child_schema: Schema) -> Optional[Schema]:
        from ...expr.aggregates import aggregate_output_schema
        needed = set(expr.group_columns)
        for spec in expr.aggregates:
            needed |= spec.columns()
        if not child_schema.has_all(needed):
            return None
        return aggregate_output_schema(list(expr.group_columns), child_schema,
                                       list(expr.aggregates))

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
            stats = child.stats.with_rows(
                child.stats.distinct_of_set(columns))
            yield from self._and_sharded(
                make_plan("Dedup", child.schema, full_order, stats,
                          self.cost_model.dedup(child.stats), [child]),
                self._sharded_distinct_alternative, columns)
        child = self.optimize_goal(expr.child, EMPTY_ORDER, bound.value)
        if child is None:
            return
        stats = child.stats.with_rows(child.stats.distinct_of_set(columns))
        yield make_plan("HashDedup", child.schema, EMPTY_ORDER, stats,
                        self.cost_model.hash_dedup(child.stats, stats), [child])

    def _sharded_distinct_alternative(self, unsharded: PhysicalPlan,
                                      columns: list[str]
                                      ) -> Optional[PhysicalPlan]:
        """Per-shard DISTINCT under a merge with a merge-level final
        dedup: each shard deduplicates its (sorted) slice, the
        order-preserving merge gathers one row per per-shard distinct
        value, and a final streaming :class:`Dedup` above the merge
        drops duplicates that straddled shard boundaries — adjacent
        after the merge, so the result is bit-identical to the
        unsharded Dedup.  Wins when in-shard duplicates shrink the merge
        input (the DISTINCT analogue of the per-shard aggregation) or
        when the per-shard enforcers below already avoided a spill.
        """
        sharded = self._sorted_shards_of(unsharded.children[0])
        if sharded is None:
            return None
        shards, disjoint = sharded
        dedups = [
            replace(unsharded, self_cost=self.cost_model.dedup(shard.stats),
                    stats=shard.stats.with_rows(
                        shard.stats.distinct_of_set(columns)),
                    children=(shard,))
            for shard in shards]
        return self._gathered(dedups, disjoint, unsharded, finish=unsharded)

    def _union_candidates(self, expr: Union, required: SortOrder,
                          bound: _Bound) -> Iterable[PhysicalPlan]:
        lgroup, rgroup = self.groups.of(expr.left), self.groups.of(expr.right)
        rename = dict(zip(lgroup.schema.names, rgroup.schema.names))
        columns = list(lgroup.schema.names)
        left_eq, right_eq = lgroup.eq, rgroup.eq
        for perm in self.strategy.set_orders(self.order_ctx, expr, columns,
                                             required):
            full_order = self._complete_set_order(
                perm, columns, [({}, left_eq), (rename, right_eq)])
            if full_order is None:
                continue
            left = self.optimize_goal(expr.left, perm, bound.value)
            if left is None:
                continue
            right = self.optimize_goal(expr.right, perm.translate(rename),
                                       bound.value - left.total_cost)
            if right is None:
                continue
            stats = left.stats.union(right.stats, self.eq)
            yield make_plan("MergeUnion", left.schema, full_order, stats,
                            self.cost_model.merge_union(left.stats, right.stats),
                            [left, right])
        left = self.optimize_goal(expr.left, EMPTY_ORDER, bound.value)
        if left is None:
            return
        right = self.optimize_goal(expr.right, EMPTY_ORDER,
                                   bound.value - left.total_cost)
        if right is None:
            return
        all_stats = left.stats.union(right.stats, self.eq)
        union_all = make_plan("UnionAll", left.schema, EMPTY_ORDER, all_stats,
                              0.0, [left, right])
        dedup_stats = all_stats.with_rows(all_stats.distinct_of_set(columns))
        yield make_plan("HashDedup", left.schema, EMPTY_ORDER, dedup_stats,
                        self.cost_model.hash_dedup(all_stats, dedup_stats),
                        [union_all])

    def _limit_candidates(self, expr: Limit, required: SortOrder,
                          bound: _Bound) -> Iterable[PhysicalPlan]:
        child = self.optimize_goal(expr.child, required, bound.value)
        if child is None:
            return
        stats = child.stats.with_rows(min(child.stats.N, expr.k))
        yield make_plan("Limit", child.schema, child.order, stats, 0.0,
                        [child], k=expr.k)
