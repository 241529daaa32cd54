"""Physical plan construction: one constructor per physical operator.

:class:`PlanBuilder` is the only code that makes
:class:`~repro.optimizer.plans.PhysicalPlan` nodes.  Each method states
once how an operator's output schema, guaranteed order, statistics and
cost follow from its inputs (the cost formula inline, over the shared
ones of :class:`~repro.optimizer.cost.CostModel`), and writes the
``args`` its row of :data:`~repro.engine.lowering.LOWERINGS` reads.  It
has two kinds of caller:

* the Volcano search: a
  :class:`~repro.optimizer.pipeline.PhysicalSelection` holds one, on the
  query's equivalence classes, and decides only which child goals to
  request and which candidate wins;
* hand-built plans.  The paper compares against the plans PostgreSQL,
  SYS1 and SYS2 produced (Figures 1, 2, 10, 11, 14), which
  :mod:`repro.optimizer.baselines` encodes operator by operator.  Made by
  the same rules, they are comparable with the search's plans on
  estimated cost — isolating the effect the paper measures (the choice
  of sort orders) from engine differences.

A node is a tuple that costs little to build, so the search builds each
candidate it compares with the same constructor a hand-built plan calls.
A per-shard copy of an operator is the same constructor applied to the
shard's input.  Where the copy is priced on more than its children
carry, the constructor takes it as an argument: ``stats`` (the output
statistics, when the caller apportions the whole operator's estimate or
finishes partial results into it) and ``on`` (measured per-shard or
per-partition statistics of the inputs).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..core.sort_order import (
    AttributeEquivalence,
    EMPTY_ORDER,
    SortOrder,
    longest_common_prefix,
)
from ..expr.aggregates import AggSpec, aggregate_output_schema
from ..expr.expressions import (
    And,
    Col,
    Comparison,
    Expression,
    JoinPredicate,
    Predicate,
)
from ..logical.algebra import LogicalExpr
from ..storage.catalog import Catalog
from ..storage.schema import Column, Schema
from ..storage.statistics import StatsView, blocks_for
from .cost import CostModel
from .plans import PhysicalPlan, make_plan


class PlanBuilder:
    """Constructor of physical plan nodes over one catalog and one set
    of attribute equivalences (*eq*: the search passes the query's; a
    hand-built plan starts empty and :meth:`equate`\\ s its joins)."""

    def __init__(self, catalog: Catalog,
                 eq: Optional[AttributeEquivalence] = None) -> None:
        self.catalog = catalog
        self.eq = AttributeEquivalence() if eq is None else eq
        self.cost = CostModel(catalog.params, self.eq)
        #: See :meth:`_once`.
        self._derived: dict[tuple, tuple] = {}

    def equate(self, *pairs: tuple[str, str]) -> "PlanBuilder":
        """Register join equalities so order matching works across sides."""
        for a, b in pairs:
            self.eq.add_equivalence(a, b)
        return self

    def _once(self, fn, *inputs):
        """``fn(*inputs)``, computed once per distinct *inputs* objects.
        Statistics and schemas are immutable and shared by the plans
        built over them (an enforcer carries its input's), so what is a
        function of them — table statistics, join estimates, join
        schemas — is the same for all the permutations requesting it.
        The entry holds *inputs*, so an ``id()`` is never reused as a
        key; the key holds a method's function, not the method — a bound
        method of the builder would make the builder reference itself."""
        key = (getattr(fn, "__func__", fn), *map(id, inputs))
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = (fn(*inputs), inputs)
        return hit[0]

    # -- scans --------------------------------------------------------------------
    def _table_stats(self, table) -> StatsView:
        keys = [table.primary_key] if table.primary_key else []
        return StatsView.of_table(table.schema, table.stats, self.eq, keys)

    def table_scan(self, table_name: str) -> PhysicalPlan:
        table = self.catalog.table(table_name)
        stats = self._once(self._table_stats, table)
        return make_plan("TableScan", table.schema, table.clustering_order,
                         stats, float(stats.B(self.catalog.params.block_size)),
                         table=table_name)

    def clustering_scan(self, table_name: str) -> PhysicalPlan:
        if not self.catalog.table(table_name).clustering_order:
            raise ValueError(f"table {table_name} has no clustering order")
        return self.table_scan(table_name)._replace(op="ClusteringIndexScan")

    def covering_scan(self, table_name: str, index_name: str) -> PhysicalPlan:
        index = self.catalog.index(table_name, index_name)
        stats = self._once(self._table_stats, index.table)
        leaf_schema = index.leaf_schema
        return make_plan("CoveringIndexScan", leaf_schema, index.key,
                         stats.projected(list(leaf_schema.names)),
                         float(blocks_for(stats.N, index.entry_bytes(),
                                          self.catalog.params.block_size)),
                         table=table_name, index=index_name)

    # -- row operators ---------------------------------------------------------------
    def filter(self, child: PhysicalPlan, predicate: Predicate,
               stats: Optional[StatsView] = None) -> PhysicalPlan:
        if stats is None:
            stats = child.stats.scaled(predicate.selectivity(child.stats))
        return make_plan("Filter", child.schema, child.order, stats,
                         self.cost.cpu(child.stats.N), [child],
                         predicate=predicate)

    def project(self, child: PhysicalPlan, columns: Sequence[str]) -> PhysicalPlan:
        schema = child.schema.project(list(columns))
        order = child.order.restrict_prefix_to(columns, self.eq)
        return make_plan("Project", schema, order,
                         child.stats.projected(list(columns)),
                         self.cost.cpu(0.1 * child.stats.N), [child],
                         columns=tuple(columns))

    def compute(self, child: PhysicalPlan,
                outputs: Sequence[tuple[str, Expression]]) -> PhysicalPlan:
        schema = Schema(list(child.schema)
                        + [Column(n, "num", 8) for n, _ in outputs])
        stats = StatsView(schema, child.stats.N,
                          {c: child.stats.distinct_of(c)
                           for c in child.schema.names}, self.eq)
        return make_plan("Compute", schema, child.order, stats,
                         self.cost.cpu(0.1 * child.stats.N), [child],
                         outputs=tuple(outputs))

    def shard_of(self, node: PhysicalPlan, shard_count: int, shard_index: int,
                 share: float, range_table=None) -> PhysicalPlan:
        """One shard's copy of a chain of per-row unaries over a table
        or clustering scan: the scan leaf becomes a ``ShardedScan`` (or a
        ``RangePartitionScan`` of *range_table*) and every node carries
        its *share* of the rows and cost, so the k shards together cost
        exactly what the unsharded subtree did — except the scan leaf of
        a *non-contiguous* range partition, which reads the whole table
        and keeps the full scan cost (the real price of range-sharding a
        layout that doesn't match the spec)."""
        stats = node.stats.scaled(share)
        if node.children:
            child = self.shard_of(node.children[0], shard_count, shard_index,
                                  share, range_table)
            return node._replace(stats=stats, self_cost=node.self_cost * share,
                                 children=(child,))
        if range_table is None:
            return make_plan("ShardedScan", node.schema, node.order, stats,
                             node.self_cost * share, table=node.arg("table"),
                             shard_count=shard_count, shard_index=shard_index)
        cost = (node.self_cost * share if range_table.partition_contiguous
                else node.self_cost)
        return make_plan("RangePartitionScan", node.schema, node.order, stats,
                         cost, table=node.arg("table"),
                         partition_index=shard_index,
                         partition_count=shard_count)

    # -- sorting -----------------------------------------------------------------------
    def sort(self, child: PhysicalPlan, order: SortOrder, full: bool = False,
             eq: Optional[AttributeEquivalence] = None,
             on: Optional[StatsView] = None,
             limit: float = math.inf) -> Optional[PhysicalPlan]:
        """Sort enforcer — *child* itself when it already delivers
        *order*; a partial sort when its order shares a prefix (unless
        *full* forces the SRS behaviour of Experiment A1).

        *eq* narrows the equivalences the prefix is matched under (the
        search passes the goal's own subtree's: a sibling union branch's
        join equivalence must not donate a prefix the stream does not
        have), and the enforcer is priced under the same ones.  *on* are
        the measured statistics of a shard: the enforcer is priced on
        them, and carries them (schema permitting) so the per-shard
        operators above it see real distinct counts.  The enforcer is
        priced before it is built: ``None`` when the sorted plan would
        cost *limit* or more (the search's budget)."""
        prefix = longest_common_prefix(order, child.order, eq or self.eq)
        if prefix == order:
            return child
        if full or not prefix:
            prefix = EMPTY_ORDER
        stats = child.stats if on is None else on
        cost = self.cost.enforcer(stats, prefix)
        if child.total_cost + cost >= limit:
            return None
        if on is not None and on.schema.names != child.schema.names:
            stats = child.stats
        return make_plan("PartialSort" if prefix else "Sort", child.schema,
                         order, stats, cost, [child], prefix=prefix)

    # -- joins --------------------------------------------------------------------------
    def _join_stats(self, pairs: Sequence[tuple[str, str]], join_type: str,
                    left: StatsView, right: StatsView) -> StatsView:
        """The join estimate; an outer join emits at least the rows of
        each side it preserves."""
        joined = left.join(right, list(pairs), self.eq)
        if join_type == "left":
            return joined.with_rows(max(joined.N, left.N))
        if join_type == "full":
            return joined.with_rows(max(joined.N, left.N, right.N))
        return joined

    def _join_output(self, left: PhysicalPlan, right: PhysicalPlan,
                     pairs: Sequence[tuple[str, str]], join_type: str,
                     stats: Optional[StatsView]) -> tuple[StatsView, Schema]:
        """Output statistics (unless given) and schema of joining the
        two plans — one estimate per pairs object and input statistics,
        whatever the permutation a merge join runs them in."""
        if stats is None:
            stats = self._once(self._join_stats, pairs, join_type,
                               left.stats, right.stats)
        return stats, self._once(Schema.concat, left.schema, right.schema)

    def merge_join(self, left: PhysicalPlan, right: PhysicalPlan,
                   pairs: Sequence[tuple[str, str]],
                   join_type: str = "inner", sort_inputs: bool = True,
                   logical: Optional[LogicalExpr] = None,
                   stats: Optional[StatsView] = None) -> PhysicalPlan:
        """Merge join on the given pair permutation; by default registers
        the pair equalities and inserts whatever sorts the inputs still
        need.  The search, whose inputs are sorted and whose equivalences
        are the query's (outer-join pairs are *not* among them), passes
        ``sort_inputs=False`` and the *logical* join: it is kept on the
        node for phase-2 refinement, and its pairs as written — not the
        permutation — are what the output is estimated on.  Pairs of the
        logical join that the permutation leaves out (the search reduces
        merge keys under equivalences of the left input) are enforced by
        a ``Filter`` on the merged rows, which only an inner join allows.
        """
        perm = SortOrder([l for l, _ in pairs])
        if sort_inputs:
            self.equate(*pairs)
            left = self.sort(left, perm)
            right = self.sort(right, SortOrder([r for _, r in pairs]))
        written = pairs if logical is None else logical.predicate.pairs
        stats, schema = self._join_output(left, right, written, join_type, stats)
        merged, residual = stats, ()
        if len(pairs) < len(written):
            keyed = {r for _, r in pairs}
            residual = [pair for pair in written if pair[1] not in keyed]
            if join_type != "inner":
                raise ValueError(f"{join_type} merge join on {perm} leaves "
                                 f"out {residual}: only an inner join can "
                                 f"enforce pairs above the merge")
            merged = self._join_stats(pairs, join_type, left.stats, right.stats)
        # FULL OUTER pads left key columns of right-unmatched rows with
        # NULLs mid-stream, wherever the right key falls: under NULLS
        # FIRST the output is not sorted on the left permutation, so it
        # claims no order (a wrong claim would skip an enforcer above).
        out_order = EMPTY_ORDER if join_type == "full" else perm
        join = make_plan("MergeJoin", schema, out_order, merged,
                         self.cost.cpu(left.stats.N + right.stats.N + merged.N),
                         [left, right], predicate=JoinPredicate(pairs),
                         join_type=join_type, logical=logical)
        if not residual:
            return join
        return self.filter(join, And(*(Comparison("=", Col(l), Col(r))
                                       for l, r in residual)), stats)

    def hash_join(self, left: PhysicalPlan, right: PhysicalPlan,
                  pairs: Sequence[tuple[str, str]],
                  join_type: str = "inner",
                  stats: Optional[StatsView] = None,
                  on: Optional[tuple[StatsView, StatsView]] = None
                  ) -> PhysicalPlan:
        """Hash join, building on *left*; *on* are the measured
        ``(build, probe)`` statistics of one partition pair."""
        stats, schema = self._join_output(left, right, pairs, join_type, stats)
        build, probe = on or (left.stats, right.stats)
        p = self.catalog.params
        cost = (build.N + probe.N) / p.hash_build_rows_per_io + self.cost.cpu(stats.N)
        if build.B(p.block_size) > p.sort_memory_blocks:
            cost += 2.0 * (build.B(p.block_size) + probe.B(p.block_size))
        return make_plan("HashJoin", schema, EMPTY_ORDER, stats, cost,
                         [left, right],
                         predicate=self._once(JoinPredicate, pairs),
                         join_type=join_type)

    # -- aggregation -----------------------------------------------------------------------
    def _grouped(self, child: PhysicalPlan, group_columns: Sequence[str],
                 aggregates: Sequence[AggSpec]) -> tuple[Schema, StatsView]:
        schema = aggregate_output_schema(list(group_columns), child.schema,
                                         list(aggregates))
        return schema, child.stats.grouped(list(group_columns), schema)

    def sort_aggregate(self, child: PhysicalPlan, group_order: SortOrder,
                       aggregates: Sequence[AggSpec],
                       group_columns: Optional[Sequence[str]] = None,
                       logical: Optional[LogicalExpr] = None) -> PhysicalPlan:
        group_columns = tuple(group_columns or group_order)
        schema, stats = self._grouped(child, group_columns, aggregates)
        return make_plan("SortAggregate", schema, group_order, stats,
                         self.cost.cpu(child.stats.N), [child],
                         group_columns=group_columns,
                         aggregates=tuple(aggregates), logical=logical)

    def hash_aggregate(self, child: PhysicalPlan,
                       group_columns: Sequence[str],
                       aggregates: Sequence[AggSpec]) -> PhysicalPlan:
        schema, stats = self._grouped(child, group_columns, aggregates)
        return make_plan("HashAggregate", schema, EMPTY_ORDER, stats,
                         self.cost.hash_table(child.stats.N, stats), [child],
                         group_columns=tuple(group_columns),
                         aggregates=tuple(aggregates))

    def sorted_combine(self, gather: PhysicalPlan,
                       group_columns: Sequence[str],
                       aggregates: Sequence[AggSpec],
                       stats: StatsView) -> PhysicalPlan:
        """The final combine above a *gather* of per-shard partial
        aggregates: folds the groups that straddled shard boundaries
        into *stats*, what the unsharded aggregate emits."""
        return make_plan("SortedCombine", gather.schema, gather.order, stats,
                         self.cost.cpu(gather.stats.N), [gather],
                         group_columns=tuple(group_columns),
                         aggregates=tuple(aggregates))

    # -- sets ----------------------------------------------------------------------------------
    def merge_union(self, left: PhysicalPlan, right: PhysicalPlan,
                    order: SortOrder, sort_inputs: bool = True) -> PhysicalPlan:
        """Duplicate-eliminating merge union on *order* over all output
        columns; by default inserts whatever sorts the inputs need."""
        if sort_inputs:
            left = self.sort(left, order)
            right = self.sort(right, order.translate(
                dict(zip(left.schema.names, right.schema.names))))
        stats = self._union_stats(left, right)
        return make_plan("MergeUnion", left.schema, order, stats,
                         self.cost.cpu(left.stats.N + right.stats.N),
                         [left, right])

    def _union_stats(self, left: PhysicalPlan,
                     right: PhysicalPlan) -> StatsView:
        """The union estimate — one per pair of input statistics, however
        many permutations a merge union runs its inputs in (merging the
        branches' distinct sketches is the expensive part)."""
        return self._once(StatsView.union, left.stats, right.stats, self.eq)

    def union_all(self, left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan:
        stats = self._union_stats(left, right)
        return make_plan("UnionAll", left.schema, EMPTY_ORDER, stats, 0.0,
                         [left, right])

    def _distinct_stats(self, child: PhysicalPlan,
                        columns: Optional[Sequence[str]]) -> StatsView:
        """The DISTINCT estimate — one per input statistics and column
        list, however many orders a dedup runs its input in."""
        names = child.schema.names if columns is None else columns
        return self._once(self._dedup_stats, child.stats, names)

    @staticmethod
    def _dedup_stats(stats: StatsView, columns: Sequence[str]) -> StatsView:
        return stats.with_rows(stats.distinct_of_set(columns))

    def dedup(self, child: PhysicalPlan, order: SortOrder,
              columns: Optional[Sequence[str]] = None,
              stats: Optional[StatsView] = None) -> PhysicalPlan:
        """Streaming duplicate elimination over *child* sorted on
        *order*; *columns* (default: all of the child's) are what rows
        are distinct on.  Above a gather of per-shard ``Dedup``\\ s it is
        the finisher dropping the duplicates that straddled shard
        boundaries, emitting *stats* — what the unsharded one emits."""
        if stats is None:
            stats = self._distinct_stats(child, columns)
        return make_plan("Dedup", child.schema, order, stats,
                         self.cost.cpu(child.stats.N), [child])

    def hash_dedup(self, child: PhysicalPlan,
                   columns: Optional[Sequence[str]] = None) -> PhysicalPlan:
        stats = self._distinct_stats(child, columns)
        return make_plan("HashDedup", child.schema, EMPTY_ORDER, stats,
                         self.cost.hash_table(child.stats.N, stats), [child])

    def limit(self, child: PhysicalPlan, k: int) -> PhysicalPlan:
        stats = child.stats.with_rows(min(child.stats.N, k))
        return make_plan("Limit", child.schema, child.order, stats, 0.0,
                         [child], k=k)

    # -- exchange ------------------------------------------------------------------------------
    def gather(self, shards: Sequence[PhysicalPlan], order: SortOrder,
               stats: StatsView, disjoint: bool = False) -> PhysicalPlan:
        """The per-shard pipelines *shards* under their gather: an
        order-preserving ``MergeExchange`` on *order* — heap-free when
        the shards are declared *disjoint* on its leading attribute —
        or for ε a cost-free ``ExchangeUnion``.  *stats* is what the
        shards emit together."""
        if not order:
            return make_plan("ExchangeUnion", shards[0].schema, order, stats,
                             0.0, shards)
        cost = self.cost.merge_exchange(stats.N, len(shards), disjoint=disjoint)
        return make_plan("MergeExchange", shards[0].schema, order, stats, cost,
                         shards, disjoint=disjoint)
