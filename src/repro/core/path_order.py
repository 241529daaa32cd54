"""PathOrder: optimal sort-order permutations along a path (Section 4.2, Fig. 4).

Problem 1, restricted to paths: given nodes ``v1..vn`` (e.g. the
merge-joins of a left-deep plan), each with an attribute set ``s_i``,
choose a permutation ``p_i`` of each ``s_i`` maximising

    F = Σ_{edges (v_i, v_{i+1})} |p_i ∧ p_{i+1}|

(the total length of longest common prefixes of adjacent permutations —
a proxy for the sorting work the shared prefixes save).

The paper's dynamic program: for a segment ``(i, j)``,

    OPT(i, j) = max over i ≤ k < j of
                OPT(i, k) + OPT(k+1, j) + c(i, j)

where ``c(i, j) = |∩_{t=i..j} s_t|`` is the number of attributes common
to the whole segment.  ``MakePermutation`` then prepends the segment's
common attributes (in one fixed arbitrary permutation) to every node of
the segment and recurses into the two halves, subtracting used
attributes.

Complexity: ``O(n³)`` segment combinations with ``O(n·|s|)`` set work —
negligible for real plans (§6.3 reports < 6 ms for 31 joins;
``tests/test_paper_ledger.py`` counts the DPs the tree approximation
runs there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .sort_order import SortOrder, arbitrary_permutation


@dataclass(frozen=True)
class PathOrderResult:
    """Permutations chosen for each path node plus the DP's benefit value."""

    permutations: tuple[SortOrder, ...]
    benefit: int


def path_order(
    attr_sets: Sequence[Iterable[str]],
    permute: Optional[Callable[[frozenset[str]], SortOrder]] = None,
) -> PathOrderResult:
    """Run the PathOrder DP of Figure 4.

    ``attr_sets[i]`` is the attribute set of node ``v_{i+1}``.  *permute*
    supplies the "arbitrary permutation" of a set (deterministic
    lexicographic by default), letting callers bias tie-breaks.
    """
    sets = [frozenset(s) for s in attr_sets]
    n = len(sets)
    if n == 0:
        return PathOrderResult((), 0)
    if permute is None:
        permute = lambda s: arbitrary_permutation(s)  # noqa: E731

    # benefit[i][j], commons[i][j], split[i][j] for 0 <= i <= j < n.
    benefit = [[0] * n for _ in range(n)]
    commons: list[list[frozenset[str]]] = [[frozenset()] * n for _ in range(n)]
    split = [[-1] * n for _ in range(n)]
    for i in range(n):
        commons[i][i] = sets[i]

    for length in range(1, n):
        for i in range(n - length):
            j = i + length
            best_k, best_val = i, None
            for k in range(i, j):
                val = benefit[i][k] + benefit[k + 1][j]
                if best_val is None or val > best_val:
                    best_val, best_k = val, k
            seg_common = commons[i][best_k] & commons[best_k + 1][j]
            commons[i][j] = seg_common
            benefit[i][j] = best_val + len(seg_common)
            split[i][j] = best_k

    # MakePermutation: prepend each segment's common attributes (one shared
    # arbitrary permutation) to all nodes in the segment, consume them, and
    # recurse into the split halves.
    #
    # The paper's pseudocode subtracts the used set from *every* other
    # segment; applied to segments disjoint from (i, j) that would delete
    # attributes never emitted there, producing incomplete permutations
    # (e.g. sets {a,b},{a,b},{c},{a,d},{a,d}).  We therefore track the
    # unconsumed attributes per *node*, which confines the subtraction to
    # the segment being processed — clearly the intended semantics, since
    # ancestors of a segment all cover it entirely.
    perms: list[list[str]] = [[] for _ in range(n)]
    remaining = [set(s) for s in sets]

    def make_permutation(i: int, j: int) -> None:
        if i == j:
            leftover = frozenset(remaining[i])
            perms[i].extend(permute(leftover))
            remaining[i].clear()
            return
        shared = frozenset(commons[i][j]) & frozenset(remaining[i])
        # Attributes may already have been consumed by an enclosing segment.
        shared_perm = permute(shared)
        for k in range(i, j + 1):
            perms[k].extend(a for a in shared_perm if a in remaining[k])
            remaining[k].difference_update(shared)
        m = split[i][j]
        make_permutation(i, m)
        make_permutation(m + 1, j)

    make_permutation(0, n - 1)
    result = PathOrderResult(tuple(SortOrder(p) for p in perms), benefit[0][n - 1])
    return result
