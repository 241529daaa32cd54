"""Hand-built physical plans.

The paper compares against the plans PostgreSQL, SYS1 and SYS2 produced
(Figures 1, 2, 10, 11, 14).  :class:`PlanBuilder` lets the benchmark
suite encode those exact plan shapes operator-by-operator on our engine,
with consistent statistics and costs — isolating the effect the paper
measures (the choice of sort orders) from engine differences.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.sort_order import (
    AttributeEquivalence,
    EMPTY_ORDER,
    SortOrder,
    longest_common_prefix,
)
from ..expr.aggregates import AggSpec, aggregate_output_schema
from ..expr.expressions import Expression, JoinPredicate, Predicate
from ..storage.catalog import Catalog
from ..storage.schema import Column, Schema
from ..storage.statistics import StatsView
from .cost import CostModel
from .plans import PhysicalPlan, make_plan


class PlanBuilder:
    """Fluent constructor for explicit physical plans.

    Every method returns a :class:`PhysicalPlan` with statistics derived
    the same way the optimizer derives them, so hand-built baselines and
    optimizer output are cost-comparable.
    """

    def __init__(self, catalog: Catalog,
                 eq: Optional[AttributeEquivalence] = None) -> None:
        self.catalog = catalog
        self.eq = eq or AttributeEquivalence()
        self.cost = CostModel(catalog.params, self.eq)

    def equate(self, *pairs: tuple[str, str]) -> "PlanBuilder":
        """Register join equalities so order matching works across sides."""
        for a, b in pairs:
            self.eq.add_equivalence(a, b)
        return self

    # -- scans --------------------------------------------------------------------
    def table_scan(self, table_name: str) -> PhysicalPlan:
        table = self.catalog.table(table_name)
        keys = [table.primary_key] if table.primary_key else []
        stats = StatsView.of_table(table.schema, table.stats, self.eq, keys)
        return make_plan("TableScan", table.schema, table.clustering_order,
                         stats, self.cost.table_scan(stats), table=table_name)

    def clustering_scan(self, table_name: str) -> PhysicalPlan:
        plan = self.table_scan(table_name)
        return make_plan("ClusteringIndexScan", plan.schema, plan.order,
                         plan.stats, plan.self_cost, table=table_name)

    def covering_scan(self, table_name: str, index_name: str) -> PhysicalPlan:
        index = next(ix for ix in self.catalog.indexes_of(table_name)
                     if ix.name == index_name)
        table = index.table
        keys = [table.primary_key] if table.primary_key else []
        stats = StatsView.of_table(table.schema, table.stats, self.eq, keys)
        leaf_stats = stats.projected(list(index.leaf_schema.names))
        return make_plan("CoveringIndexScan", index.leaf_schema, index.key,
                         leaf_stats,
                         self.cost.index_scan(stats.N, index.entry_bytes()),
                         table=table_name, index=index_name)

    # -- row operators ---------------------------------------------------------------
    def filter(self, child: PhysicalPlan, predicate: Predicate) -> PhysicalPlan:
        stats = child.stats.scaled(predicate.selectivity(child.stats))
        return make_plan("Filter", child.schema, child.order, stats,
                         self.cost.filter(child.stats), [child],
                         predicate=predicate)

    def project(self, child: PhysicalPlan, columns: Sequence[str]) -> PhysicalPlan:
        schema = child.schema.project(list(columns))
        order = child.order.restrict_prefix_to(columns, self.eq)
        return make_plan("Project", schema, order,
                         child.stats.projected(list(columns)),
                         self.cost.project(child.stats), [child],
                         columns=tuple(columns))

    def compute(self, child: PhysicalPlan,
                outputs: Sequence[tuple[str, Expression]]) -> PhysicalPlan:
        schema = Schema(list(child.schema)
                        + [Column(n, "num", 8) for n, _ in outputs])
        stats = StatsView(schema, child.stats.N,
                          {c: child.stats.distinct_of(c)
                           for c in child.schema.names}, self.eq)
        return make_plan("Compute", schema, child.order, stats,
                         self.cost.project(child.stats), [child],
                         outputs=tuple(outputs))

    # -- sorting -----------------------------------------------------------------------
    def sort(self, child: PhysicalPlan, order: SortOrder,
             full: bool = False) -> PhysicalPlan:
        """Sort enforcer; a partial sort when the child's order shares a
        prefix (unless *full* forces the SRS behaviour of Experiment A1)."""
        if child.order.satisfies(order, self.eq):
            return child
        prefix = (EMPTY_ORDER if full
                  else longest_common_prefix(order, child.order, self.eq))
        cost = self.cost.coe(child.stats, child.order, order,
                             partial_enabled=not full)
        if prefix:
            return make_plan("PartialSort", child.schema, order, child.stats,
                             cost, [child], prefix=prefix, algorithm="mrs")
        return make_plan("Sort", child.schema, order, child.stats, cost,
                         [child], prefix=EMPTY_ORDER, algorithm="srs")

    # -- joins --------------------------------------------------------------------------
    def merge_join(self, left: PhysicalPlan, right: PhysicalPlan,
                   pairs: Sequence[tuple[str, str]],
                   join_type: str = "inner",
                   sort_inputs: bool = True) -> PhysicalPlan:
        """Merge join on the given pair permutation; by default inserts
        whatever sorts the inputs still need."""
        self.equate(*pairs)
        perm = SortOrder([l for l, _ in pairs])
        right_perm = SortOrder([r for _, r in pairs])
        if sort_inputs:
            left = self.sort(left, perm)
            right = self.sort(right, right_perm)
        predicate = JoinPredicate(pairs)
        stats = left.stats.join(right.stats, list(pairs), self.eq)
        if join_type == "left":
            stats = stats.with_rows(max(stats.N, left.stats.N))
        elif join_type == "full":
            stats = stats.with_rows(max(stats.N, left.stats.N, right.stats.N))
        schema = left.schema.concat(right.schema)
        # FULL OUTER pads left key columns of right-unmatched rows with
        # NULLs mid-stream — no output order (mirrors engine/joins.py and
        # the volcano candidates; sorts above must not be skipped).
        out_order = EMPTY_ORDER if join_type == "full" else perm
        return make_plan("MergeJoin", schema, out_order, stats,
                         self.cost.merge_join(left.stats, right.stats, stats.N),
                         [left, right], predicate=predicate,
                         join_type=join_type)

    def hash_join(self, left: PhysicalPlan, right: PhysicalPlan,
                  pairs: Sequence[tuple[str, str]],
                  join_type: str = "inner") -> PhysicalPlan:
        self.equate(*pairs)
        predicate = JoinPredicate(pairs)
        stats = left.stats.join(right.stats, list(pairs), self.eq)
        if join_type == "left":
            stats = stats.with_rows(max(stats.N, left.stats.N))
        elif join_type == "full":
            stats = stats.with_rows(max(stats.N, left.stats.N, right.stats.N))
        schema = left.schema.concat(right.schema)
        return make_plan("HashJoin", schema, EMPTY_ORDER, stats,
                         self.cost.hash_join(left.stats, right.stats, stats.N),
                         [left, right], predicate=predicate,
                         join_type=join_type)

    # -- aggregation -----------------------------------------------------------------------
    def sort_aggregate(self, child: PhysicalPlan, group_order: SortOrder,
                       aggregates: Sequence[AggSpec],
                       group_columns: Optional[Sequence[str]] = None) -> PhysicalPlan:
        group_columns = list(group_columns or group_order)
        schema = aggregate_output_schema(group_columns, child.schema,
                                         list(aggregates))
        stats = child.stats.grouped(group_columns, schema)
        return make_plan("SortAggregate", schema, group_order, stats,
                         self.cost.sort_aggregate(child.stats), [child],
                         group_columns=tuple(group_columns),
                         aggregates=tuple(aggregates))

    def hash_aggregate(self, child: PhysicalPlan,
                       group_columns: Sequence[str],
                       aggregates: Sequence[AggSpec]) -> PhysicalPlan:
        group_columns = list(group_columns)
        schema = aggregate_output_schema(group_columns, child.schema,
                                         list(aggregates))
        stats = child.stats.grouped(group_columns, schema)
        return make_plan("HashAggregate", schema, EMPTY_ORDER, stats,
                         self.cost.hash_aggregate(child.stats, stats), [child],
                         group_columns=tuple(group_columns),
                         aggregates=tuple(aggregates))

    # -- sets ----------------------------------------------------------------------------------
    def merge_union(self, left: PhysicalPlan, right: PhysicalPlan,
                    order: SortOrder) -> PhysicalPlan:
        left = self.sort(left, order)
        right = self.sort(right, order.translate(
            dict(zip(left.schema.names, right.schema.names))))
        stats = left.stats.union(right.stats, self.eq)
        return make_plan("MergeUnion", left.schema, order, stats,
                         self.cost.merge_union(left.stats, right.stats),
                         [left, right])

    def union_all(self, left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan:
        stats = left.stats.union(right.stats, self.eq)
        return make_plan("UnionAll", left.schema, EMPTY_ORDER, stats, 0.0,
                         [left, right])

    def limit(self, child: PhysicalPlan, k: int) -> PhysicalPlan:
        stats = child.stats.with_rows(min(child.stats.N, k))
        return make_plan("Limit", child.schema, child.order, stats, 0.0,
                         [child], k=k)
