"""Stage 2 — join-order enumeration.

A :class:`JoinOrderEnumerator` maps one logical tree to the one tree
the physical-selection stage searches: join order is decided here, once.
The default :class:`ExhaustiveEnumerator` returns the tree unchanged —
the paper's search already explores every merge-join permutation and
sharding alternative *within* the given join shape, so the default
pipeline is bit-identical to the pre-pipeline optimizer.  The two
alternative enumerators commit to a single rewritten left-deep order
up front, trading plan optimality for a drastically smaller search:

* :class:`SimpliSquaredEnumerator` — Simpli-Squared ordering: base
  relations by size only, no selectivity estimates at all;
* :class:`GreedyManyToManyEnumerator` — expansion-aware greedy ordering
  that penalizes many-to-many intermediate blowup using the catalog's
  measured distinct counts and per-shard row skew
  (:meth:`repro.storage.table.Table.shard_stats`).

Only **maximal inner-join regions** are reordered — outer joins are
order-sensitive and act as region boundaries.  Because column order is
semantically significant downstream (``Union`` renames positionally,
and the root schema must not change), every reordered region is wrapped
in a :class:`~repro.logical.algebra.Project` restoring the region's
original output column order.  Any ambiguity — duplicate column names,
join attributes resolvable to more than one leaf, a disconnected join
graph, or predicate pairs that cannot be re-oriented into a valid
left-deep conjunction — makes the rewrite bail out and keep the
original region: a reordered tree is always exactly equivalent to the
input or it is not produced.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Union as TUnion

from ...logical.algebra import BaseRelation, Join, LogicalExpr, Project, output_schema
from ...expr.expressions import JoinPredicate
from ...storage.catalog import Catalog

__all__ = [
    "JoinOrderEnumerator",
    "ExhaustiveEnumerator",
    "SimpliSquaredEnumerator",
    "GreedyManyToManyEnumerator",
    "ENUMERATORS",
    "make_enumerator",
]

#: Shard fan-out probed for skew in the greedy enumerator; matches the
#: serving layer's most common ``parallelism`` setting.
_SKEW_PROBE_SHARDS = 4

#: Per-attribute duplication factor above which a join side counts as
#: "many" for the many-to-many penalty (1.0 = key-like).
_M2M_FANOUT = 1.05


class JoinOrderEnumerator:
    """Interface of stage 2: logical tree → the tree to search.

    Subclasses override :meth:`reorder`; the returned tree must be
    result-equivalent to the input (same rows, same output columns in
    the same order).  Returning *expr* itself means "search the query as
    written".
    """

    #: Registry key; also the default cache salt.
    name: str = "base"

    @property
    def cache_salt(self) -> str:
        """Plan-cache fingerprint salt.  Two enumerators with different
        salts never share a :class:`~repro.service.plan_cache.PlanCache`
        entry.  The default exhaustive enumerator salts with ``""`` so
        pre-pipeline fingerprints stay valid."""
        return self.name

    def reorder(self, catalog: Catalog, expr: LogicalExpr) -> LogicalExpr:
        raise NotImplementedError


class ExhaustiveEnumerator(JoinOrderEnumerator):
    """Search the query exactly as written (the default, bit-identical
    to the pre-pipeline optimizer: join-order exploration stays inside
    the physical search's per-join interesting-order permutations)."""

    name = "exhaustive"

    @property
    def cache_salt(self) -> str:
        return ""  # the unsalted baseline

    def reorder(self, catalog: Catalog, expr: LogicalExpr) -> LogicalExpr:
        return expr


# -- join-region analysis ---------------------------------------------------------------
def _flatten_region(expr: LogicalExpr
                    ) -> tuple[list[LogicalExpr],
                               list[tuple[tuple[str, str], ...]]]:
    """Leaves and per-edge predicate pair groups of the maximal
    inner-join region rooted at *expr* (pre-order leaf order = the
    region's output column order)."""
    if isinstance(expr, Join) and expr.join_type == "inner":
        l_leaves, l_edges = _flatten_region(expr.left)
        r_leaves, r_edges = _flatten_region(expr.right)
        return l_leaves + r_leaves, l_edges + r_edges + [expr.predicate.pairs]
    return [expr], []


class _JoinRegion:
    """A validated maximal inner-join region: leaves, their schemas and
    the join-graph edges, indexed by leaf position."""

    def __init__(self, leaves: list[LogicalExpr],
                 schemas: list[tuple[str, ...]],
                 edges: list[tuple[int, int, tuple[str, str]]]) -> None:
        self.leaves = leaves
        self.schemas = schemas
        #: ``(left_leaf, right_leaf, (left_col, right_col))`` — one entry
        #: per original predicate pair, indices into :attr:`leaves`.
        self.edges = edges
        self.adjacency: dict[int, set[int]] = {i: set() for i in range(len(leaves))}
        for a, b, _ in edges:
            self.adjacency[a].add(b)
            self.adjacency[b].add(a)


def _analyze_region(catalog: Catalog, leaves: list[LogicalExpr],
                    edge_groups: list[tuple[tuple[str, str], ...]]
                    ) -> Optional[_JoinRegion]:
    """Resolve every predicate pair to a (leaf, leaf) edge, or ``None``
    when the region cannot be safely reordered."""
    if len(leaves) < 3:
        return None  # no ordering freedom worth committing to
    schemas = [tuple(output_schema(catalog, leaf).names) for leaf in leaves]
    owner: dict[str, int] = {}
    for i, names in enumerate(schemas):
        for name in names:
            if name in owner:
                return None  # duplicate column name → ambiguous
            owner[name] = i
    edges: list[tuple[int, int, tuple[str, str]]] = []
    for pairs in edge_groups:
        for l, r in pairs:
            li, ri = owner.get(l), owner.get(r)
            if li is None or ri is None or li == ri:
                return None
            edges.append((li, ri, (l, r)))
    return _JoinRegion(leaves, schemas, edges)


def _build_left_deep(region: _JoinRegion,
                     order: list[int]) -> Optional[LogicalExpr]:
    """Left-deep join over ``region.leaves`` in *order*, re-orienting
    each predicate pair so its left column comes from the accumulated
    left side.  ``None`` when the order is not connected or the merged
    per-join pair sets collide (duplicate columns on a side)."""
    placed = {order[0]}
    current = region.leaves[order[0]]
    used = [False] * len(region.edges)
    for idx in order[1:]:
        pairs: list[tuple[str, str]] = []
        for e, (a, b, (l, r)) in enumerate(region.edges):
            if used[e]:
                continue
            if a in placed and b == idx:
                pairs.append((l, r))
            elif b in placed and a == idx:
                pairs.append((r, l))
            else:
                continue
            used[e] = True
        if not pairs:
            return None  # disconnected at this step
        if (len({l for l, _ in pairs}) != len(pairs)
                or len({r for _, r in pairs}) != len(pairs)):
            return None  # merged edges collide on a join side
        current = Join(current, region.leaves[idx], JoinPredicate(pairs),
                       "inner")
        placed.add(idx)
    if not all(used):
        return None  # an edge's endpoints were never bridged
    return current


def _rebuild_as_written(expr: LogicalExpr,
                        leaves: "list[LogicalExpr]") -> LogicalExpr:
    """The region with its (possibly rewritten) leaves substituted back
    into the original join shape; consumes *leaves* in pre-order."""
    def rec(node: LogicalExpr) -> LogicalExpr:
        if isinstance(node, Join) and node.join_type == "inner":
            left = rec(node.left)
            right = rec(node.right)
            if left is node.left and right is node.right:
                return node
            return replace(node, left=left, right=right)
        return leaves.pop(0)
    return rec(expr)


class _ReorderingEnumerator(JoinOrderEnumerator):
    """Shared driver for enumerators that commit to one rewritten order
    per inner-join region (template method: :meth:`_order_leaves`)."""

    def reorder(self, catalog: Catalog, expr: LogicalExpr) -> LogicalExpr:
        if isinstance(expr, Join) and expr.join_type == "inner":
            return self._rewrite_region(catalog, expr)
        if not expr.children:
            return expr
        if len(expr.children) == 2:
            left = self.reorder(catalog, expr.left)     # type: ignore[attr-defined]
            right = self.reorder(catalog, expr.right)   # type: ignore[attr-defined]
            if left is expr.left and right is expr.right:  # type: ignore[attr-defined]
                return expr
            return replace(expr, left=left, right=right)
        child = self.reorder(catalog, expr.child)       # type: ignore[attr-defined]
        return expr if child is expr.child else replace(expr, child=child)  # type: ignore[attr-defined]

    def _rewrite_region(self, catalog: Catalog, expr: LogicalExpr) -> LogicalExpr:
        leaves, edge_groups = _flatten_region(expr)
        new_leaves = [self.reorder(catalog, leaf) for leaf in leaves]
        region = _analyze_region(catalog, new_leaves, edge_groups)
        if region is None:
            return _rebuild_as_written(expr, list(new_leaves))
        order = self._order_leaves(catalog, region)
        if order is None or order == list(range(len(new_leaves))):
            return _rebuild_as_written(expr, list(new_leaves))
        built = _build_left_deep(region, order)
        if built is None:
            return _rebuild_as_written(expr, list(new_leaves))
        # Restore the region's original output column order — column
        # positions are semantically significant downstream (positional
        # Union renames, the root schema contract).
        original_columns = tuple(n for names in region.schemas for n in names)
        return Project(built, original_columns)

    def _order_leaves(self, catalog: Catalog,
                      region: _JoinRegion) -> Optional[list[int]]:
        raise NotImplementedError

    # -- shared greedy frontier ----------------------------------------------------
    def _grow(self, region: _JoinRegion, start: int,
              pick: Callable[[set[int], list[int]], int]) -> Optional[list[int]]:
        """Connected order from *start*, choosing among frontier leaves
        with *pick(placed_set, frontier)*; ``None`` if disconnected."""
        order = [start]
        placed = {start}
        while len(order) < len(region.leaves):
            frontier = sorted({j for i in placed for j in region.adjacency[i]}
                              - placed)
            if not frontier:
                return None
            nxt = pick(placed, frontier)
            order.append(nxt)
            placed.add(nxt)
        return order


def _leaf_base_size(catalog: Catalog, leaf: LogicalExpr) -> float:
    """Product of base-table row counts under *leaf* — deliberately no
    selectivity: Simpli-Squared's premise is that sizes alone order
    joins about as well as fragile cardinality estimates."""
    size = 1.0
    for node in leaf.walk():
        if isinstance(node, BaseRelation):
            size *= max(1.0, float(catalog.table(node.table_name).stats.num_rows))
    return size


class SimpliSquaredEnumerator(_ReorderingEnumerator):
    """Simpli-Squared: order base relations by size only.

    Smallest relation first, then always the smallest relation connected
    to what has been joined so far.  No selectivity or distinct-count
    estimates are consulted — the point of Simpli-Squared is that join
    ordering without a cardinality model is nearly as good and far
    cheaper to search (one committed order instead of a permutation
    space).
    """

    name = "simpli-squared"

    def _order_leaves(self, catalog: Catalog,
                      region: _JoinRegion) -> Optional[list[int]]:
        sizes = [_leaf_base_size(catalog, leaf) for leaf in region.leaves]
        start = min(range(len(sizes)), key=lambda i: (sizes[i], i))
        return self._grow(region, start,
                          lambda placed, frontier:
                          min(frontier, key=lambda j: (sizes[j], j)))


def _leaf_attr_stats(catalog: Catalog, leaf: LogicalExpr
                     ) -> dict[str, tuple[float, float, float]]:
    """Per-column ``(rows, distinct, shard_skew)`` from the base tables
    under *leaf*.  ``shard_skew ≥ 1`` is the max-shard/mean-shard row
    ratio at the probe fan-out — measured storage skew that amplifies
    the cost of expanding joins under sharded execution.

    Columns the *declared* statistics are silent about default to
    key-like (``distinct = num_rows``, i.e. fanout 1) — which hides
    exactly the duplicate-heavy columns the m2m penalty exists for.  On
    materialised tables the measured per-shard statistics carry
    mergeable :class:`~repro.storage.statistics.DistinctSketch` per
    column; their union estimates the table-wide distinct count
    overlap-aware, so the scorer sees the real duplication instead of
    the uniform assumption.
    """
    out: dict[str, tuple[float, float, float]] = {}
    for node in leaf.walk():
        if not isinstance(node, BaseRelation):
            continue
        table = catalog.table(node.table_name)
        rows = max(1.0, float(table.stats.num_rows))
        shards = table.shard_stats(_SKEW_PROBE_SHARDS)
        skew = 1.0
        if shards:
            total = sum(s.num_rows for s in shards)
            if total > 0:
                skew = max(s.num_rows for s in shards) * len(shards) / total
        for column in table.schema.names:
            distinct = float(table.stats.distinct_of(column))
            if column not in table.stats.distinct and shards:
                sketches = [s.sketches.get(column) for s in shards]
                if all(sketch is not None for sketch in sketches):
                    merged = sketches[0]
                    for sketch in sketches[1:]:
                        merged = merged.union(sketch)
                    distinct = max(1.0, min(rows, merged.estimate()))
            out[column] = (rows, distinct, skew)
    return out


class GreedyManyToManyEnumerator(_ReorderingEnumerator):
    """Expansion-aware greedy ordering penalizing many-to-many joins.

    Follows "Optimizing Queries with Many-to-Many Joins": joins where
    *both* sides carry duplicate join values multiply intermediate
    cardinality, so the greedy frontier choice scores each candidate by
    the estimated growth it inflicts — per-value match count from the
    catalog's distinct statistics, times a blowup penalty when both
    sides' duplication factors exceed :data:`_M2M_FANOUT`, times the
    candidate's measured per-shard row skew (skewed storage makes an
    expanding join even worse once sharded).  Smallest estimated
    intermediate result wins at every step.
    """

    name = "greedy-m2m"

    def _order_leaves(self, catalog: Catalog,
                      region: _JoinRegion) -> Optional[list[int]]:
        sizes = [_leaf_base_size(catalog, leaf) for leaf in region.leaves]
        stats = [_leaf_attr_stats(catalog, leaf) for leaf in region.leaves]

        def attr(j: int, column: str) -> tuple[float, float, float]:
            # Unknown (computed) columns: key-like, no skew — neutral.
            return stats[j].get(column, (sizes[j], sizes[j], 1.0))

        def growth_and_penalty(placed: set[int], j: int) -> tuple[float, float]:
            selective = 1.0
            fan_old = []
            fan_new = []
            skew = 1.0
            for a, b, (l, r) in region.edges:
                if a in placed and b == j:
                    old_col, new_col = l, r
                elif b in placed and a == j:
                    old_col, new_col = r, l
                else:
                    continue
                o_rows, o_distinct, _ = attr(
                    a if a in placed else b, old_col)
                n_rows, n_distinct, n_skew = attr(j, new_col)
                selective = min(sizes[j], selective * max(1.0, n_distinct))
                fan_old.append(o_rows / max(1.0, o_distinct))
                fan_new.append(n_rows / max(1.0, n_distinct))
                skew = max(skew, n_skew)
            matches = sizes[j] / max(1.0, selective)
            penalty = 1.0
            if (fan_old and min(fan_old) > _M2M_FANOUT
                    and min(fan_new) > _M2M_FANOUT):
                penalty = min(fan_old) * min(fan_new) * skew
            return matches, penalty

        running = [0.0]

        def pick(placed: set[int], frontier: list[int]) -> int:
            def score(j: int) -> tuple[float, int]:
                matches, penalty = growth_and_penalty(placed, j)
                return (running[0] * matches * penalty, j)
            best = min(frontier, key=score)
            matches, _ = growth_and_penalty(placed, best)
            running[0] = max(1.0, running[0] * matches)
            return best

        start = min(range(len(sizes)), key=lambda i: (sizes[i], i))
        running[0] = max(1.0, sizes[start])
        return self._grow(region, start, pick)


#: Registry: config string → enumerator class (mirrors
#: ``core.interesting.STRATEGY_VARIANTS`` for order strategies).
ENUMERATORS: dict[str, type[JoinOrderEnumerator]] = {
    ExhaustiveEnumerator.name: ExhaustiveEnumerator,
    SimpliSquaredEnumerator.name: SimpliSquaredEnumerator,
    GreedyManyToManyEnumerator.name: GreedyManyToManyEnumerator,
}


def make_enumerator(spec: TUnion[str, JoinOrderEnumerator]
                    ) -> JoinOrderEnumerator:
    """Resolve a config value — registry name or ready instance — to a
    :class:`JoinOrderEnumerator` (the pre-check stage's entry point for
    plugging custom enumerators)."""
    if isinstance(spec, JoinOrderEnumerator):
        return spec
    try:
        cls = ENUMERATORS[spec]
    except KeyError:
        raise ValueError(
            f"unknown join enumerator {spec!r}; "
            f"known: {sorted(ENUMERATORS)}") from None
    return cls()
