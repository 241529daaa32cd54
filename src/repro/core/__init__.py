"""The paper's core contribution: sort-order reasoning and selection.

Submodules:

* :mod:`.sort_order` — the order algebra (``≤``, ``∧``, ``+``, ``−``, ``o∧s``);
* :mod:`.path_order` — exact DP for paths (Fig. 4) — ``PathOrder`` / ``MakePermutation``;
* :mod:`.tree_approx` — 2-approximation for binary trees (odd/even paths);
* :mod:`.favorable` — the approximate minimal favorable orders ``afm``;
* :mod:`.interesting` — interesting-order strategies PYRO … PYRO-E;
* :mod:`.refinement` — phase-2 plan refinement.

The reduction from SUM-CUT behind Theorem 4.1, the exhaustive optima that
PathOrder and the tree approximation are held to, and the exact
``benefit`` and ``ford-min`` are claims the tests verify, not steps the
search takes, so they live with the tests.
"""

from .sort_order import (
    EMPTY_ORDER,
    AttributeEquivalence,
    SortOrder,
    arbitrary_permutation,
    longest_common_prefix,
)

__all__ = [
    "AttributeEquivalence",
    "EMPTY_ORDER",
    "SortOrder",
    "arbitrary_permutation",
    "longest_common_prefix",
]
