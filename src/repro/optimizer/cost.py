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

Each operator's own cost is written inline in its
:class:`~repro.optimizer.manual.PlanBuilder` constructor; only the
formulas operators share live here.

CPU comparisons are translated into I/O units by the
``cpu_comparisons_per_io`` system parameter (the paper's translation
constant is unpublished; the default is this reproduction's assumption,
stated at :class:`~repro.storage.catalog.SystemParameters`).
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.sort_order import (
    AttributeEquivalence,
    EMPTY_ORDER,
    SortOrder,
    longest_common_prefix,
)
from ..storage.catalog import SystemParameters
from ..storage.statistics import StatsView

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
        #: See :meth:`enforcer`.
        self._priced: dict[tuple, tuple] = {}

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

    def enforcer(self, stats: StatsView, shared: SortOrder) -> float:
        """``coe(e, o1, o2)`` given ``shared = o1 ∧ o2`` (ε: a full sort),
        priced once per statistics object and shared prefix, whatever
        the rest of *o2*; the entry holds *stats*, so an ``id()`` is
        never reused as a key."""
        key = (id(stats), shared)
        hit = self._priced.get(key)
        if hit is None:
            N, B = stats.N, stats.B(self.params.block_size)
            if N <= 0:
                cost = 0.0
            elif not shared:
                cost = self.full_sort(N, B)
            else:
                segments = max(1.0, stats.distinct_of_set(list(shared)))
                cost = segments * self.full_sort(N / segments,
                                                 max(1.0, B / segments))
            hit = self._priced[key] = (cost, stats)
        return hit[0]

    def coe(self, stats: StatsView, from_order: SortOrder, to_order: SortOrder,
            partial_enabled: bool = True,
            eq: Optional[AttributeEquivalence] = None) -> float:
        """Cost of enforcing *to_order* given guaranteed *from_order*, the
        shared prefix matched under *eq* (default: the model's)."""
        shared = longest_common_prefix(to_order, from_order,
                                       self.eq if eq is None else eq)
        if shared == to_order:
            return 0.0
        return self.enforcer(stats, shared if partial_enabled else EMPTY_ORDER)

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

    # -- hashing ----------------------------------------------------------------------
    def hash_table(self, in_rows: float, table: StatsView) -> float:
        """A hash table of *table*'s rows built from *in_rows* input rows
        (hash aggregate, hash DISTINCT), spilling to grace partitions —
        written and read back once — when it outgrows sort memory."""
        cost = in_rows / self.params.hash_build_rows_per_io
        blocks = table.B(self.params.block_size)
        if blocks > self.params.sort_memory_blocks:
            cost += 2.0 * blocks
        return cost
