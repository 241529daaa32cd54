"""Stage 3 — physical operator selection.

The cost-based Volcano search that turns one logical tree into the
cheapest physical plan guaranteeing a required sort order: one driver
over a table of each logical operator's physical alternatives
(:data:`RULES`), the paper's (partial) sort enforcers, shard-aware
enforcer/join/aggregate/distinct placement, and
the cost-bounded branch-and-bound memo with Columbia's re-search
discipline.

One :class:`PhysicalSelection` instance searches one join tree: the one
stage 2 decided on (the pipeline driver in :mod:`repro.optimizer.volcano`
builds one per query, and one more on the same group table when phase 2
forces orders).  The search is split the Cascades way: what is true
of a logical node's *result* lives once per group in the
:class:`~.groups.GroupTable`; the search itself holds what depends on a
requested order — the memo of ``(group id, canonical order)`` goals —
and the physical alternatives it builds once and hands to every goal
that reaches them: a node's candidates are generated once per value of
what the strategy reads of the order.  An enforcer is built like any
operator, by :meth:`PlanBuilder.sort`, for each candidate that beats
the goal's best so far.  See "Groups and goals" in
``docs/optimizer.md``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from ...core.interesting import OrderStrategy
from ...core.sort_order import (
    AttributeEquivalence,
    EMPTY_ORDER,
    SortOrder,
    derived_order,
)
from ...engine.aggregates import combinable
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
from .groups import GroupTable
from .pre_check import OptimizerConfig

#: Per-row unaries that commute with sharding, by plan op: applying them
#: to each contiguous shard and concatenating equals applying them to
#: the whole stream, and each shard's output order equals the
#: whole-stream order — the shapes shard-aware enforcer placement treats
#: as shard-transparent.
ORDER_PRESERVING_UNARY_OPS = ("Filter", "Project", "Compute")


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
    by the search (:meth:`PhysicalSelection._offer`) and the serving
    layer's decision counters (:func:`shard_decisions`), so "a sharded
    alternative existed" means the same thing in both places.
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
    generator; shrinks as better complete plans are found.  *missed*
    records that a child request of the generation came back without a
    plan (:meth:`PhysicalSelection._request`)."""

    __slots__ = ("value", "missed")

    def __init__(self, value: float = math.inf) -> None:
        self.value = value
        self.missed = False


class _Interesting:
    """One entry of :meth:`PhysicalSelection._orders`: a node's
    interesting orders for one value of what the strategy reads, the
    node itself (holding it pins its ``id()``), and the candidate plans
    generated over those orders once a generation got a plan from every
    child request (``None`` until then)."""

    __slots__ = ("orders", "expr", "candidates")

    def __init__(self, orders: list[SortOrder], expr: LogicalExpr) -> None:
        self.orders = orders
        self.expr = expr
        self.candidates: Optional[tuple[PhysicalPlan, ...]] = None


class PhysicalSelection:
    """State for optimizing a single query (memo, group table, afm)."""

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
        #: Whole-query equivalence classes (the root group's) — used for
        #: *candidate generation* (interesting orders) and cost pricing.
        #: Goal satisfaction and reduction must NOT use these: a join
        #: equivalence or a constant filter (``t0_c1 = 28``) established
        #: in one union branch is invalid in a name-colliding sibling,
        #: and reducing the sibling's sort goal with it silently drops a
        #: sort column (caught by the plan-parity fuzz suite).  Goals use
        #: their own :class:`~.groups.Group`'s subtree-scoped facts.
        self.eq = self.groups.root.eq
        self.favorable = self.groups.favorable
        #: Makes every plan node of this search: what an operator's
        #: schema, order, statistics and cost are is its business, which
        #: child goals to request and which candidate wins is ours.
        self.builder = PlanBuilder(catalog, self.eq)
        #: Whether an enforcer of this search can go below a shard
        #: fan-out at all: decided once, from the parallelism and the
        #: tables the tree reads, so :meth:`_offer` asks of a candidate's
        #: input only when one of them can be sharded.
        k = config.parallelism
        self._shardable = k > 1 and any(
            shardable(table, k) or range_shardable(table)
            for table in map(catalog.table, {
                node.table_name for node in root.walk()
                if isinstance(node, BaseRelation)}))
        #: The builder's once-per-input derivations, one table per search.
        self._derived = self.builder._derived
        #: Physical alternatives, once per search: see :meth:`_alternatives`.
        self._built: dict[tuple, tuple] = {}
        #: The strategy's interesting orders and the candidates over
        #: them, once per search: see :meth:`_orders`.
        self._interesting: dict[tuple, _Interesting] = {}
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

        pruning = self.config.cost_bound_pruning
        bound = _Bound(limit if pruning else math.inf)
        translations: dict[tuple[str, ...], Optional[SortOrder]] = {}
        best = None
        for candidate in self._native_candidates(expr, required, bound):
            plan = self._offer(candidate, required, bound.value, group.eq,
                               translations)
            if plan is None:
                continue
            if best is None or plan.total_cost < best.total_cost:
                best = plan
                if pruning:
                    bound.value = plan.total_cost
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
    def _offer(self, plan: PhysicalPlan, target: SortOrder, limit: float,
               eq: AttributeEquivalence,
               translations: dict[tuple[str, ...], Optional[SortOrder]]
               ) -> Optional[PhysicalPlan]:
        """*plan* under the enforcer of the goal's reduced order *target*
        (*plan* itself when it needs none), built by
        :meth:`PlanBuilder.sort` like any operator; ``None`` when no
        enforcer applies or the enforced plan costs *limit* or more, in
        which case no enforcer is built.  *target* is translated into
        *plan*'s column names once per goal and schema, through
        *translations*.

        With ``parallelism > 1`` and a shardable input, two enforcer
        placements compete on cost: the classic post-union sort above the
        (future) exchange, and per-shard SRS/MRS enforcers gathered by an
        order-preserving :class:`MergeExchange` — "partitioned +
        per-shard-ordered" is a physical property the merge converts into
        the required global order.  Ties resolve to the simpler
        post-union plan (:func:`~repro.optimizer.cost.prefer_sharded`)."""
        if plan.total_cost >= limit:
            return None
        if not target or target.is_prefix_of(plan.order, eq):
            return plan
        names = plan.schema.names
        if names in translations:
            translated = translations[names]
        else:
            translated = translations[names] = self._translate_order(
                target, plan.schema, eq)
        if translated is None:
            return None
        full = not self.strategy.partial_sorts
        if self._shardable and shardable_enforcement_input(
                plan, self.catalog, self.config.parallelism):
            # No limit: a placement below the exchange may come in under
            # it where the post-union sort does not.
            sort = self.builder.sort(plan, translated, full, eq)
            # (An equivalence-collapsed *translated* may already hold.)
            if sort is not plan:
                sort = self._sharded_enforcement(sort, eq) or sort
            return sort if sort.total_cost < limit else None
        return self.builder.sort(plan, translated, full, eq, limit=limit)

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
        once = self.builder._once
        if contiguous and shardable(table, k):
            yield once(self._shard_views, chain, table, table.shard_stats(k),
                       k), None
        if ranged and range_shardable(table):
            yield once(self._shard_views, chain, table,
                       table.partition_stats(),
                       table.partitioning.num_partitions), table

    def _shard_views(self, chain: PhysicalPlan, table, per_table,
                     k: int) -> list[StatsView]:
        """Measured per-shard table statistics carried to the chain output
        *chain*: the chain's cumulative selectivity is applied to each
        shard's real row count, and per-shard distinct counts come from
        the measured boundaries — the numbers that drive per-shard
        partial-sort segment counts and spill predictions.  Unmeasured
        (*per_table* is ``None``): the uniform ``scaled(1/k)`` estimate.
        :meth:`_fan_outs` asks once per search per chain and shard
        statistics (through :meth:`PlanBuilder._once`)."""
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
        carries the sum of their counts and ``finish(gather, unsharded)``
        is the operator above it that folds what straddled shard
        boundaries into what *unsharded* emits."""
        stats = unsharded.stats
        if finish is not None:
            stats = stats.with_rows(sum(node.stats.N for node in nodes))
        plan = self.builder.gather(nodes, unsharded.order, stats, disjoint)
        if finish is not None:
            plan = finish(plan, unsharded)
        return (plan if prefer_sharded(plan.total_cost, unsharded.total_cost)
                else None)

    def _sharded_enforcement(self, unsharded: PhysicalPlan,
                             eq: AttributeEquivalence
                             ) -> Optional[PhysicalPlan]:
        """The cheapest below-the-exchange placement of the enforcer
        *unsharded* — contiguous equal shards or declared range
        partitions, each priced with measured per-shard statistics where
        available — or ``None`` when the classic post-union sort wins
        (ties resolve to post-union via :func:`prefer_sharded`).  Each
        fan-out is priced first on the calls its plan's constructors make
        — the unsharded enforcer's prefix priced on each shard's view,
        plus the gather — so the k-shard plan tree is only built for the
        placement that wins."""
        chain, translated = unsharded.children[0], unsharded.order
        prefix, cost = unsharded.arg("prefix"), self.builder.cost
        best = None
        for views, table in self._fan_outs(chain):
            disjoint = (table is not None and
                        translated[0] == table.partitioning.column)
            est = chain.total_cost + (
                sum(cost.enforcer(view, prefix) for view in views)
                + cost.merge_exchange(chain.stats.N, len(views), disjoint))
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
                                 unsharded.op == "Sort", eq)
        return self._gathered(shards, disjoint, unsharded)

    def _and_sharded(self, rule: Rule, expr: LogicalExpr, variant,
                     inputs: tuple) -> tuple[PhysicalPlan, ...]:
        """*rule*'s operator of *expr* on *variant* over the plans
        *inputs*, then — when planning for a fan-out — its
        below-the-exchange form if it applies and wins: the operator over
        each shard's inputs, gathered.

        The row's ``fan`` says whether it applies (the row's guard) and
        how the inputs fan out (:meth:`_sorted_shards_of`,
        :meth:`_copartitions`): per shard the inputs, the measured
        statistics the constructor takes to price them ``on``, if any,
        and the rows they weigh in with.  Without a ``finish`` (see
        :meth:`_gathered`) the shards partition the operator's output,
        so each copy is told its ``stats``: the unsharded estimate
        apportioned by weight.  With one they emit partial results,
        estimated from the shard by the constructor itself.
        """
        unsharded = rule.construct(self, expr, variant, *inputs)
        fanned = (self._shardable and rule.fan is not None
                  and rule.fan(self, expr, variant, *inputs))
        if not fanned:
            return (unsharded,)
        shards, disjoint = fanned
        total = sum(rows for _, _, rows in shards) or 1.0
        nodes = []
        for inputs, on, rows in shards:
            explicit = {} if on is None else {"on": on}
            if rule.finish is None:
                explicit["stats"] = unsharded.stats.scaled(rows / total)
            nodes.append(rule.construct(self, expr, variant, *inputs,
                                        **explicit))
        sharded = self._gathered(nodes, disjoint, unsharded, rule.finish
                                 and partial(rule.finish, self, expr, variant))
        return (unsharded,) if sharded is None else (unsharded, sharded)

    def _sorted_shards_of(self, expr: LogicalExpr, plan: PhysicalPlan,
                          *replicated: PhysicalPlan,
                          leading: Optional[str] = None):
        """Fan out the sorted first input *plan* of the operator of
        *expr* — per-shard sorted pipelines delivering its order, the
        shards a per-shard join, aggregate or DISTINCT builds on — every
        shard next to the whole of the *replicated* other inputs (a
        replicated subtree appears once per shard in the plan, so its
        replication cost is charged naturally by ``total_cost``).

        Two shapes qualify: a plan whose enforcer was already placed per
        shard (``MergeExchange`` — reuse its children, dropping the
        pre-operator merge, and their disjointness on its leading
        attribute), and a ``Sort``/``PartialSort`` over a contiguously
        shardable chain (shard the chain and apply the same enforcer to
        each shard, matched under what it was: the equivalences of the
        first input's group).  Returns ``None`` for everything else.
        *leading* is the attribute the gather merges on first when it
        must literally be the shards' leading one for their disjointness
        to carry over."""
        if plan.op == "MergeExchange":
            shards, disjoint = plan.children, bool(plan.arg("disjoint", False))
        elif plan.op in ("Sort", "PartialSort"):
            chain = plan.children[0]
            fan_out = next(self._fan_outs(chain, ranged=False), None)
            if fan_out is None:
                return None
            shards, disjoint = self._shards_of(
                chain, *fan_out, plan.order, plan.op == "Sort",
                self.groups.of(expr.children[0]).eq), False
        else:
            return None
        disjoint = disjoint and (leading is None or plan.order[:1] == (leading,))
        return [((shard, *replicated), None, shard.stats.N)
                for shard in shards], disjoint

    def _copartitions(self, join: Join, left: PhysicalPlan,
                      right: PhysicalPlan):
        """Fan out both inputs of *join* along their tables' declared
        range partitions — when both are partitioned on one of its
        equality pairs with identical bounds, so partition *i* of the
        left can only match partition *i* of the right.  The copies are
        priced on the per-partition views and weigh in with the
        per-partition row-count product."""
        fan_outs = [next(self._fan_outs(side, contiguous=False), None)
                    for side in (left, right)]
        if None in fan_outs:
            return None
        (lviews, ltable), (rviews, rtable) = fan_outs
        lp, rp = ltable.partitioning, rtable.partitioning
        if (lp.bounds != rp.bounds
                or (lp.column, rp.column) not in join.predicate.pairs):
            return None
        return [((lshard, rshard), (lview, rview), lview.N * rview.N)
                for lshard, rshard, lview, rview in zip(
                    self._shards_of(left, lviews, ltable),
                    self._shards_of(right, rviews, rtable),
                    lviews, rviews)], False

    def _translate_order(self, order: SortOrder, schema: Schema,
                         eq: AttributeEquivalence) -> Optional[SortOrder]:
        """Express *order* in *schema*'s column names via the goal
        subtree's own equivalences *eq* (*order* itself when the schema
        has its names)."""
        if schema.has_all(order):
            return order
        out: list[str] = []
        for attr in order:
            if attr not in schema:
                attr = next((c for c in schema.names if eq.same(c, attr)),
                            None)
                if attr is None:
                    return None
            if attr not in out:
                out.append(attr)
        return derived_order(out)

    def ensure_schema(self, plan: PhysicalPlan, expr: LogicalExpr) -> PhysicalPlan:
        """Project the final plan to the logical output schema when a
        covering-index scan or join swap changed column order."""
        target = self.groups.of(expr).schema
        if plan.schema.names == target.names:
            return plan
        if not plan.schema.has_all(target.names):
            return plan  # narrower logical projection not expressible
        return self.builder.project(plan, target.names)

    # -- candidate generation: one driver over the rows of RULES -------------
    def _native_candidates(self, expr: LogicalExpr, required: SortOrder,
                           bound: _Bound) -> Iterable[PhysicalPlan]:
        """The candidate plans of a goal of *expr*, before enforcement:
        the rows of its class in :data:`RULES`, walked by the driver
        :meth:`_generate` — through :meth:`_orders` where they range over
        the strategy's interesting orders.  Lazy wherever a candidate's
        child requests read the budget that the goal's earlier
        candidates shrank."""
        rules = RULES[expr.__class__]
        if rules.interesting is not None:
            return self._orders(rules, expr, required, bound)
        if expr.children:
            return self._generate(expr, rules, required, (), bound)
        # A leaf's rows read nothing of the goal and request no child:
        # its scans are built once, keyed like an order-free alternative.
        key = (id(expr), None)
        if key not in self._built:
            self._built[key] = (tuple([
                rule.construct(self, expr, variant) for rule in rules.rows
                for _, variant in rule.orders(self, expr, required, ())]),
                expr, ())
        return self._built[key][0]

    def _orders(self, rules: Rules, expr: LogicalExpr, required: SortOrder,
                bound: _Bound) -> Iterable[PhysicalPlan]:
        """The candidates of a join, group-by, DISTINCT or union *expr*:
        its *rules* over the strategy's interesting orders, from the
        method ``rules.interesting`` gives (``join_orders``, or
        ``group_orders`` / ``set_orders`` over the node's columns),
        which sees of *required* only what the strategy reads
        (:meth:`~repro.core.interesting.OrderStrategy.reads`).  Both are
        computed once per search per logical node and read value, in one
        entry that holds *expr*: nothing else of a generation depends on
        the goal, so every later goal with that key replays the
        candidates without requesting a child goal.  A generation with a
        child request that came back without a plan is not stored: a
        larger budget may find what this one's pruning dropped."""
        method, columns = rules.interesting(self, expr)
        read = self.strategy.reads(self.favorable, expr, columns, required)
        key = (id(expr), read)
        entry = self._interesting.get(key)
        if entry is None:
            args = (read,) if columns is None else (columns, read)
            entry = self._interesting[key] = _Interesting(
                method(self.favorable, expr, *args), expr)
        elif entry.candidates is not None:
            return entry.candidates
        return self._stored(entry, bound, self._generate(
            expr, rules, required, entry.orders, bound))

    @staticmethod
    def _stored(entry: _Interesting, bound: _Bound,
                generation: Iterable[PhysicalPlan]) -> Iterable[PhysicalPlan]:
        """*generation*'s candidates as they come, kept in *entry* once
        it ends with every child request answered."""
        made = []
        for plan in generation:
            made.append(plan)
            yield plan
        if not bound.missed:
            entry.candidates = tuple(made)

    def _generate(self, expr: LogicalExpr, rules: Rules, required: SortOrder,
                  interesting: list, bound: _Bound) -> Iterable[PhysicalPlan]:
        """The driver.  Per row of *rules* the configuration enables, per
        variant of its ``orders``: *expr*'s children requested in its
        orders, each within what the earlier ones spent, none after one
        came back without a plan (which marks the generation *missed*);
        then, when the first plan has the columns the class ``needs``,
        the row's alternatives over the plans (:meth:`_and_sharded`).

        Those are built once per search and handed to every goal that
        reaches them: none depends on the goal's required order, which
        is the enforcer's business (:meth:`_offer`).  ``_built`` keeps
        them under ``(id(expr), *map(id, inputs), variant)``, in
        :meth:`PlanBuilder._once`'s idiom: the entry holds *expr* and the
        inputs, so an ``id()`` is never reused.  The key is the logical
        node object, not its group: merge joins and sort aggregates
        carry it for phase-2 refinement, and structurally equal nodes
        share a group."""
        needs = rules.needs and rules.needs(expr)
        for rule in rules.rows:
            if rule.guard and not getattr(self.config, rule.guard):
                continue
            for orders, variant in rule.orders(self, expr, required,
                                               interesting):
                inputs, limit = (), bound.value
                for child, order in zip(expr.children, orders):
                    plan = self.optimize_goal(child, order, limit)
                    if plan is None:
                        bound.missed = True
                        break
                    inputs += (plan,)
                    limit -= plan.total_cost
                else:
                    if needs and not inputs[0].schema.has_all(needs):
                        continue
                    key = (id(expr), *map(id, inputs), variant)
                    hit = self._built.get(key)
                    if hit is None:
                        hit = self._built[key] = (self._and_sharded(
                            rule, expr, variant, inputs), expr, inputs)
                    yield from hit[0]


# -- the rule table: one row per physical alternative -----------------------
class Rule(NamedTuple):
    """One physical alternative of a logical operator, a row of
    :data:`RULES`.  Each callable takes the search and the logical node
    first."""

    #: ``orders(search, expr, required, interesting)``: per variant,
    #: ``(an order per child, variant)``, from ε, the goal's *required*
    #: order, or each of the strategy's *interesting* orders
    #: (:attr:`Rules.interesting`) the row does not skip.  The variant
    #: is what the operator is built on besides its inputs (a merge key,
    #: an order, an index): hashable, ``None`` for an order-free
    #: alternative, never what another row of the class builds on.
    orders: Callable
    #: ``construct(search, expr, variant, *inputs, **explicit)``: the
    #: operator, by its one :class:`PlanBuilder` constructor; *explicit*
    #: is what a per-shard copy is told (``stats=``, ``on=``).
    construct: Callable
    #: The plan op *construct* builds (``None``: the child plan itself).
    op: Optional[str]
    #: The :class:`OptimizerConfig` flag that enables the row, if any.
    guard: Optional[str] = None
    #: ``fan(search, expr, variant, *inputs)``: how the inputs fan out
    #: below a shard exchange, falsy where the row's guard refuses or
    #: none applies (:meth:`PhysicalSelection._and_sharded`).
    fan: Optional[Callable] = None
    #: ``finish(search, expr, variant, gather, whole)``: the operator
    #: above the gather of per-shard partial results.
    finish: Optional[Callable] = None


class Rules(NamedTuple):
    """A logical class's rows, in the order a goal offers their
    candidates (ties keep the first); for an order-consuming operator
    ``interesting(search, expr)``: the strategy method its interesting
    orders come from and the node's columns it takes them over
    (``None`` for a join); and ``needs(expr)``: the columns every row's
    first input must have, those the logical operator reads."""

    rows: tuple[Rule, ...]
    interesting: Optional[Callable] = None
    needs: Optional[Callable] = None


#: Per number of children, the one variant with every child unordered.
_UNORDERED = [(((EMPTY_ORDER,) * n, None),) for n in range(3)]


def _unordered(search, expr, required, interesting):
    return _UNORDERED[len(expr.children)]


def _pushed(pushable: Callable) -> Callable:
    """An order-preserving unary's child orders: ε (sort above, fewer
    rows) and, when ``pushable(search, expr, required)``, the
    requirement itself (sort below, smaller input); the enforcer
    framework arbitrates by cost."""
    return lambda search, expr, required, _: (
        (((EMPTY_ORDER,), None), ((required,), None))
        if required and pushable(search, expr, required) else _UNORDERED[1])


def _nameable(search, expr, required) -> bool:
    """Whether *expr*'s child can express every attribute of *required*
    (by a column or an equivalent of one)."""
    columns = search.groups.of(expr.child).schema.names
    return all(any(search.eq.same(a, c) for c in columns) for a in required)


def _covering_indexes(search, scan, required, interesting):
    """Per index covering every attribute the query reads of the table,
    its name."""
    used = search.groups.used_attrs(scan.table_name)
    return [((), index.name) for index in search.catalog.indexes_of(
        scan.table_name) if index.covers(used)]


def _merge_keys(search, join, required, interesting):
    """Per interesting permutation, the two inputs' orders and, the
    variant, the merge key's pairs."""
    pairs = join.predicate.pairs
    # A permutation may name a pair by either side's attribute.
    right_of = {right: right for _, right in pairs} | dict(pairs)
    for perm in interesting:
        rights = list(map(right_of.__getitem__, perm))
        # A strategy reduces its permutations under the query's
        # equivalences, so one may leave a pair out (its left attribute
        # equals one already in the key — on the left input's rows; the
        # right attributes need not be equal).  The pair is still part
        # of the predicate: an inner join enforces it on the merged rows
        # (``merge_join`` does, told the logical join); an outer join
        # must decide a match on every pair, so there it rejoins the
        # merge key.
        if join.join_type != "inner" and len(rights) < len(pairs):
            missing = [pair for pair in pairs if pair[1] not in rights]
            perm = derived_order((*perm, *(left for left, _ in missing)))
            rights += [right for _, right in missing]
        yield (perm, derived_order(rights)), tuple(zip(perm, rights))


def _set_orders(search, expr, required, interesting):
    """Per interesting permutation, the permutation for each child — a
    union's right input in its own column names — and, the variant, the
    permutation extended to every output column, as sorted dedup
    operators require, with the permutation itself.

    Strategies canonicalize attributes, so a permutation over a
    union/distinct of joined inputs may omit columns equated by a join
    (``t2_c1 ≡ t1_c1``).  Appending such a column keeps the stream
    sorted **only if the equality holds inside the subtree producing the
    rows**: each missing column must be equivalent to some member under
    every child subtree's equivalences, through its rename.  A
    permutation that cannot be soundly extended is skipped (the
    hash-based candidates still cover the goal)."""
    groups = [search.groups.of(child) for child in expr.children]
    columns = groups[0].schema.names
    renames = [dict(zip(columns, group.schema.names)) for group in groups]
    for perm in interesting:
        missing = [c for c in columns if c not in perm]
        if all(any(group.eq.same(rename.get(c, c), rename.get(a, a))
                   for a in perm)
               for c in missing for rename, group in zip(renames, groups)):
            full = derived_order((*perm, *missing)) if missing else perm
            yield tuple(map(perm.translate, renames)), (full, perm)


def _set_interesting(search, expr):
    return search.strategy.set_orders, list(search.groups.of(expr).schema.names)


def _dedup(s, e, v, child, stats=None):
    return s.builder.dedup(child, v[0], s.groups.of(e).schema.names, stats)


#: Every logical class's physical alternatives, one row each.  Adding one
#: is a row here, its :class:`PlanBuilder` constructor and its
#: ``LOWERINGS`` row (``engine/lowering.py``).  A row's callables name
#: the search ``s``, the logical node ``e`` and the variant ``v``.
RULES: dict[type, Rules] = {
    BaseRelation: Rules((
        Rule(_unordered, lambda s, e, v: s.builder.table_scan(e.table_name),
             "TableScan"),
        Rule(_covering_indexes, lambda s, e, v: s.builder.covering_scan(
            e.table_name, v), "CoveringIndexScan"))),
    Select: Rules((Rule(_pushed(_nameable), lambda s, e, v, child:
                        s.builder.filter(child, e.predicate), "Filter"),),
                  needs=lambda e: e.predicate.columns()),
    Project: Rules((Rule(
        _pushed(lambda s, e, required: set(required) <= set(e.columns)),
        lambda s, e, v, child: s.builder.project(child, e.columns),
        "Project"),), needs=lambda e: e.columns),
    Compute: Rules((Rule(_pushed(_nameable), lambda s, e, v, child:
                         s.builder.compute(child, e.outputs), "Compute"),)),
    Join: Rules((
        # Broadcast: shard the sorted left input and replicate the right
        # — it only wins when the per-shard sort savings on a big left
        # side beat re-reading a small right side k−1 extra times.  Valid
        # for inner and LEFT OUTER joins: the shards partition the left
        # rows, so every join output (and every left-padded row) is
        # produced exactly once; a FULL OUTER join would duplicate
        # right-unmatched rows per shard.  The gather stays heap-free
        # only when the shards were range partitions disjoint on the
        # merge key's leading attribute.
        Rule(_merge_keys, lambda s, e, v, left, right, stats=None:
             s.builder.merge_join(left, right, v, e.join_type,
                                  sort_inputs=False, logical=e, stats=stats),
             "MergeJoin", fan=lambda s, e, v, left, right: e.join_type
             != "full" and s._sorted_shards_of(e, left, right,
                                               leading=v[0][0])),
        # The classic partitioned hash join.  Valid for every join type
        # (unlike the broadcast, nothing is replicated), and the win is
        # the Grace term: per-partition builds that fit in sort memory
        # skip the partition-spill I/O a monolithic build pays.  Hash
        # output is unordered anyway, so the gather is a plain exchange
        # union, costing nothing.
        Rule(_unordered, lambda s, e, v, left, right, stats=None, on=None:
             s.builder.hash_join(left, right, e.predicate.pairs, e.join_type,
                                 stats, on), "HashJoin", "enable_hash_join",
             fan=lambda s, e, v, left, right: s._copartitions(e, left, right)),
    ), lambda s, e: (s.strategy.join_orders, None)),
    GroupBy: Rules((
        # Per shard: each aggregates its (sorted) slice, the merge
        # gathers one *partial* row per per-shard group (real per-shard
        # distinct counts — under clustering skew far fewer than the
        # uniform ``k·D/k = D``), and a SortedGroupCombine folds the
        # groups that straddled shard boundaries.  Only aggregates with
        # an exact combiner qualify (``avg`` would need a sum+count
        # split), so recombined results are bit-identical to the
        # unsharded plan.
        Rule(lambda s, e, required, orders: [((o,), o) for o in orders],
             lambda s, e, v, child: s.builder.sort_aggregate(
                 child, v, e.aggregates, e.group_columns, logical=e),
             "SortAggregate", fan=lambda s, e, v, child: combinable(
                 e.aggregates) and s._sorted_shards_of(e, child),
             finish=lambda s, e, v, gather, whole: s.builder.sorted_combine(
                 gather, e.group_columns, e.aggregates, whole.stats)),
        Rule(_unordered, lambda s, e, v, child: s.builder.hash_aggregate(
            child, e.group_columns, e.aggregates), "HashAggregate",
             "enable_hash_aggregate"),
        # Group orders over the columns reduced with this subtree's FDs
        # only: a sibling branch's constant filter must not shrink the
        # sort key a streaming aggregate groups on (wrong merges of
        # distinct groups otherwise).
    ), lambda s, e: (s.strategy.group_orders, list(
        s.groups.of(e).fds.reduce_group_columns(e.group_columns))),
        lambda e: set(e.group_columns).union(*(a.columns() for a in e.aggregates))),
    Distinct: Rules((
        # Per shard: each deduplicates its (sorted) slice, the
        # order-preserving merge gathers one row per per-shard distinct
        # value, and the same Dedup above the merge drops duplicates that
        # straddled shard boundaries — adjacent after the merge, so the
        # result is bit-identical to the unsharded one.  Wins when
        # in-shard duplicates shrink the merge input (the DISTINCT
        # analogue of the per-shard aggregation) or when the per-shard
        # enforcers below already avoided a spill.
        Rule(_set_orders, _dedup, "Dedup",
             fan=lambda s, e, v, child: s._sorted_shards_of(e, child),
             finish=lambda s, e, v, gather, whole: _dedup(
                 s, e, v, gather, whole.stats)),
        Rule(_unordered, lambda s, e, v, child: s.builder.hash_dedup(
            child, s.groups.of(e).schema.names), "HashDedup"),
    ), _set_interesting),
    Union: Rules((
        Rule(_set_orders, lambda s, e, v, left, right: s.builder.merge_union(
            left, right, v[0], sort_inputs=False), "MergeUnion"),
        Rule(_unordered, lambda s, e, v, left, right: s.builder.hash_dedup(
            s.builder.union_all(left, right), s.groups.of(e).schema.names),
             "HashDedup"),
    ), _set_interesting),
    OrderBy: Rules((Rule(lambda s, e, required, _: (((e.order,), None),),
                         lambda s, e, v, child: child, None),)),
    Limit: Rules((Rule(lambda s, e, required, _: (((required,), None),),
                       lambda s, e, v, child: s.builder.limit(child, e.k), "Limit"),)),
}

#: The serving layer's counters of fresh plans that run an operator of
#: the class's rows per shard, straight under a gather.
SHARDED_COUNTERS = {"sharded_join_plans": Join, "sharded_agg_plans": GroupBy,
                    "sharded_distinct_plans": Distinct}


def shard_decisions(plan: PhysicalPlan, catalog: Catalog,
                    parallelism: int) -> list[str]:
    """The decision counters of the serving layer a fresh *plan* for
    *parallelism* > 1 bumps: each of :data:`SHARDED_COUNTERS` whose
    class it shards, then ``shard_merge_plans`` when something was
    placed below a ``MergeExchange``, else ``post_union_sort_plans``
    when a sort stayed above an input it could have been placed below
    (:func:`shardable_enforcement_input`) — interior sorts over
    unshardable shapes (join inputs etc.) are not decisions."""
    merges = plan.find_all("MergeExchange")
    sharded = {node.op for gather in merges + plan.find_all("ExchangeUnion")
               for node in gather.children}
    counters = [name for name, cls in SHARDED_COUNTERS.items()
                if any(rule.op in sharded for rule in RULES[cls].rows)]
    if merges:
        counters.append("shard_merge_plans")
    elif any(node.op in ("Sort", "PartialSort") and shardable_enforcement_input(
            node.children[0], catalog, parallelism) for node in plan.walk()):
        counters.append("post_union_sort_plans")
    return counters
