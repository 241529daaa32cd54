"""The cost model (Section 3.2), in the paper's I/O cost units.

The centrepiece is ``coe(e, o1, o2)`` — the cost of enforcing order *o2*
on a result that already has order *o1*:

* full sort (``o1 ∧ o2 = ε``)::

      coe(e, ε, o)  =  cpu-cost(e, o)                      if B(e) ≤ M
                       B(e)·(2·⌈log_{M-1}(B(e)/M)⌉ + 1)    otherwise

* partial sort::

      coe(e, o1, o2) = D(e, attrs(os)) · coe(e', ε, or)

  with ``os = o2 ∧ o1``, ``or = o2 − os`` and ``e'`` one partial sort
  segment (``N/D`` rows, ``B/D`` blocks, uniform-distribution
  assumption) — i.e. sort each segment independently and multiply by the
  number of segments.

CPU comparisons are translated into I/O units by the
``cpu_comparisons_per_io`` system parameter (the paper's translation
constant is unpublished; the default is this reproduction's assumption,
stated at :class:`~repro.storage.catalog.SystemParameters`).
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
from ..storage.catalog import SystemParameters
from ..storage.statistics import StatsView, blocks_for

#: Relative margin a per-shard-sort-plus-merge plan must win by before it
#: replaces the post-union sort.  With everything in memory the two CPU
#: costs are mathematically identical (``N·log2(N/k) + N·log2(k) =
#: N·log2(N)``), differing only by floating-point noise (~1e-16 relative);
#: the margin makes such ties resolve deterministically to the simpler
#: post-union plan while leaving every genuine spill-avoidance win intact.
SHARDED_WIN_MARGIN = 1e-9


def prefer_sharded(sharded_cost: float, post_union_cost: float) -> bool:
    """The one tie-break rule for every below-the-exchange alternative
    (per-shard enforcers, joins, aggregates, DISTINCT): the sharded plan
    must win by :data:`SHARDED_WIN_MARGIN`, else the simpler unsharded
    plan stays."""
    return sharded_cost < post_union_cost * (1.0 - SHARDED_WIN_MARGIN)


class CostModel:
    """Operator cost estimation against :class:`SystemParameters`."""

    def __init__(self, params: SystemParameters,
                 eq: Optional[AttributeEquivalence] = None) -> None:
        self.params = params
        self.eq = eq

    # -- CPU translation ------------------------------------------------------------
    def cpu(self, comparisons: float) -> float:
        return comparisons / self.params.cpu_comparisons_per_io

    def cpu_sort(self, num_rows: float, segments: float = 1.0) -> float:
        """CPU cost of sorting N rows as *segments* independent segments:
        ``N · log2(N/k)`` comparisons (Section 3.1, benefit 3)."""
        if num_rows <= 1:
            return 0.0
        per_segment = max(2.0, num_rows / max(1.0, segments))
        return self.cpu(num_rows * math.log2(per_segment))

    # -- sorting ---------------------------------------------------------------------
    def full_sort(self, num_rows: float, num_blocks: float) -> float:
        """``coe(e, ε, o)`` for one sort unit (whole input or one segment)."""
        M = self.params.sort_memory_blocks
        cpu = self.cpu_sort(num_rows)
        if num_blocks <= M:
            return cpu
        passes = math.ceil(math.log(max(1.0, num_blocks / M), max(2, M - 1)))
        return num_blocks * (2 * passes + 1) + cpu

    def coe(self, stats: StatsView, from_order: SortOrder, to_order: SortOrder,
            partial_enabled: bool = True) -> float:
        """Cost of enforcing *to_order* given guaranteed *from_order*."""
        if not to_order or to_order.is_prefix_of(from_order, self.eq):
            return 0.0
        shared = longest_common_prefix(to_order, from_order, self.eq)
        if not partial_enabled:
            shared = EMPTY_ORDER
        N, B = stats.N, stats.B(self.params.block_size)
        if N <= 0:
            return 0.0
        if not shared:
            return self.full_sort(N, B)
        segments = max(1.0, stats.distinct_of_set(list(shared)))
        seg_rows = N / segments
        seg_blocks = max(1.0, B / segments)
        return segments * self.full_sort(seg_rows, seg_blocks)

    def merge_exchange(self, num_rows: float, shard_count: int,
                       disjoint: bool = False) -> float:
        """CPU cost of a k-way order-preserving merge of shard streams:
        each of the N output rows pays one heap step of ``log2(k)``
        comparisons.  No I/O — the merge consumes the shard streams
        directly.  *disjoint* marks streams from range partitions that
        are mutually disjoint on the leading merge attribute: the gather
        concatenates instead of heap-merging and costs nothing (see
        :meth:`~repro.engine.exchange.MergeExchange.partition_disjoint`).
        """
        if disjoint or shard_count <= 1 or num_rows <= 0:
            return 0.0
        return self.cpu(num_rows * math.log2(shard_count))

    def sharded_coe(self, stats: StatsView, from_order: SortOrder,
                    to_order: SortOrder, shard_count: int,
                    partial_enabled: bool = True,
                    shard_stats: Optional[Sequence[StatsView]] = None,
                    disjoint_merge: bool = False) -> float:
        """``coe`` with the enforcer pushed below a shard fan-out: *k*
        independent enforcers over the shards (each inheriting the
        input's guaranteed order) plus the order-preserving merge that
        gathers them.

        *shard_stats*, when given, holds the **measured** per-shard
        statistics (actual row counts and distinct counts from the
        shard/partition boundaries) and each shard's enforcer is priced
        individually; otherwise the uniform ``scaled(1/k)`` approximation
        applies to every shard.  The distinction matters under skew: a
        uniform model can call every shard in-memory while one real
        partition spills, or miss that skewed segment counts make the
        per-shard partial sorts cheaper than the average suggests.

        The headline win is an I/O phenomenon: the per-shard CPU exactly
        cancels against the merge (``N·log2(N/k) + N·log2(k) =
        N·log2(N)``), but a post-union sort that spills while the
        individual shards fit in sort memory drops the entire run I/O
        term.  With *disjoint_merge* the merge term vanishes too, so
        even all-in-memory skewed partitions win on comparisons
        (``Σ nᵢ·log2(nᵢ) < N·log2(N)``).
        """
        if shard_count <= 1:
            return self.coe(stats, from_order, to_order, partial_enabled)
        if not to_order or to_order.is_prefix_of(from_order, self.eq):
            return 0.0
        if shard_stats is not None:
            per_shard = sum(self.coe(s, from_order, to_order, partial_enabled)
                            for s in shard_stats)
        else:
            uniform = stats.scaled(1.0 / shard_count)
            per_shard = shard_count * self.coe(uniform, from_order, to_order,
                                               partial_enabled)
        return per_shard + self.merge_exchange(stats.N, shard_count,
                                               disjoint=disjoint_merge)

    def combine_groups(self, partial_rows: float) -> float:
        """The finisher above a gather of per-shard partial results (the
        combine of a sharded aggregation, the final dedup of a sharded
        DISTINCT): one pass over the merged partial rows."""
        return self.cpu(partial_rows)

    # -- scans ----------------------------------------------------------------------
    def table_scan(self, stats: StatsView) -> float:
        return float(stats.B(self.params.block_size))

    def index_scan(self, num_rows: float, entry_bytes: int) -> float:
        return float(blocks_for(num_rows, entry_bytes, self.params.block_size))

    # -- joins ----------------------------------------------------------------------
    def merge_join(self, left: StatsView, right: StatsView, out_rows: float) -> float:
        return self.cpu(left.N + right.N + out_rows)

    def hash_join(self, build: StatsView, probe: StatsView, out_rows: float) -> float:
        cpu_units = (build.N + probe.N) / self.params.hash_build_rows_per_io
        cost = cpu_units + self.cpu(out_rows)
        if build.B(self.params.block_size) > self.params.sort_memory_blocks:
            cost += 2.0 * (build.B(self.params.block_size)
                           + probe.B(self.params.block_size))
        return cost

    # -- aggregation / sets ------------------------------------------------------------
    def sort_aggregate(self, in_stats: StatsView) -> float:
        return self.cpu(in_stats.N)

    def hash_aggregate(self, in_stats: StatsView, out_stats: StatsView) -> float:
        cost = in_stats.N / self.params.hash_build_rows_per_io
        out_blocks = out_stats.B(self.params.block_size)
        if out_blocks > self.params.sort_memory_blocks:
            cost += 2.0 * out_blocks
        return cost

    def merge_union(self, left: StatsView, right: StatsView) -> float:
        return self.cpu(left.N + right.N)

    def dedup(self, stats: StatsView) -> float:
        return self.cpu(stats.N)

    def hash_dedup(self, in_stats: StatsView, out_stats: StatsView) -> float:
        return self.hash_aggregate(in_stats, out_stats)

    def filter(self, in_stats: StatsView) -> float:
        return self.cpu(in_stats.N)

    def project(self, in_stats: StatsView) -> float:
        return self.cpu(0.1 * in_stats.N)
