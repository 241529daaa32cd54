"""Stage 1 — pre-check: parameter and feature validation.

Validates an :class:`OptimizerConfig` once, up front, and resolves its
string-valued knobs into the live stage objects the rest of the
pipeline runs with: the interesting-order strategy
(:func:`repro.core.interesting.make_strategy`) and the join-order
enumerator (:func:`.join_enumeration.make_enumerator`).  Invalid
configurations fail here — before any search state is built — with
:class:`PreCheckError`, so every downstream stage can assume a sane,
fully-resolved configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union as TUnion

from ...core.interesting import OrderStrategy, make_strategy
from .join_enumeration import JoinOrderEnumerator, make_enumerator

__all__ = ["OptimizerConfig", "PreCheckError", "run_pre_check"]


@dataclass
class OptimizerConfig:
    """Feature switches; defaults correspond to PYRO-O."""

    #: Interesting-order strategy: a ``STRATEGY_VARIANTS`` name, whose
    #: registry flag also decides whether partial sort enforcers exist
    #: (``"pyro-o-"`` is PYRO-O without them).
    strategy: str = "pyro-o"
    #: Phase-2 refinement (Section 5.2.2) after the search.
    refine: bool = True
    enable_hash_join: bool = True
    enable_hash_aggregate: bool = True
    #: Branch-and-bound pruning: skip subgoals/enforcers that provably
    #: cannot beat the best plan found so far for the current goal.  The
    #: chosen plan is identical either way; only search effort changes.
    cost_bound_pruning: bool = True
    #: Shard fan-out the plan will execute with (``QuerySession`` passes
    #: the execution-time ``parallelism`` knob through).  At 1 the search
    #: is oblivious to sharding; above 1 enforcers may be placed below a
    #: :class:`MergeExchange`, shard by shard, when that is cheaper.
    parallelism: int = 1
    #: Stage-2 join-order enumerator: a registry name
    #: (``"exhaustive"`` | ``"simpli-squared"`` | ``"greedy-m2m"``) or a
    #: ready :class:`~.join_enumeration.JoinOrderEnumerator` instance
    #: for custom strategies.  ``"exhaustive"`` is the pre-pipeline
    #: behaviour (bit-identical plans, unsalted cache fingerprints).
    join_enumerator: TUnion[str, JoinOrderEnumerator] = "exhaustive"


class PreCheckError(ValueError):
    """An :class:`OptimizerConfig` failed stage-1 validation."""


def run_pre_check(config: OptimizerConfig
                  ) -> tuple[OrderStrategy, JoinOrderEnumerator]:
    """Validate *config* and resolve its pluggable pieces: the order
    strategy (carrying its registry's partial-sort flag) and the
    join-order enumerator.  The config itself is read, never rewritten.
    """
    if not isinstance(config.parallelism, int) or config.parallelism < 1:
        raise PreCheckError(
            f"parallelism must be a positive int, got {config.parallelism!r}")
    try:
        strategy = make_strategy(config.strategy)
        enumerator = make_enumerator(config.join_enumerator)
    except ValueError as exc:
        raise PreCheckError(str(exc)) from None
    return strategy, enumerator
