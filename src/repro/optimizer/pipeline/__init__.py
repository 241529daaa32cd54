"""The staged optimizer pipeline, in order:

1. **pre_check** (:mod:`.pre_check`) — validate an
   :class:`OptimizerConfig`, resolve its strategy and join-order
   enumerator (once per :class:`~repro.optimizer.volcano.Optimizer`);
2. **join_enumeration** (:mod:`.join_enumeration`) — logical tree → the
   tree to search (join order is decided here);
3. **physical_selection** (:mod:`.physical_selection`) — cost-based
   Volcano search of that tree (one :class:`PhysicalSelection` per
   query);
4. **parameterization** (:mod:`.parameterization`) — the chosen plan's
   parameter names, for the plan cache.

:class:`~repro.optimizer.volcano.Optimizer` holds stage 1's result and
drives stages 2–4 per query; ``docs/optimizer.md`` is the guide."""

from .join_enumeration import (
    ENUMERATORS,
    ExhaustiveEnumerator,
    GreedyManyToManyEnumerator,
    JoinOrderEnumerator,
    SimpliSquaredEnumerator,
    make_enumerator,
)
from .parameterization import plan_params
from .physical_selection import (
    PhysicalSelection,
    enforcement_chain_scan,
    shardable_enforcement_input,
)
from .pre_check import OptimizerConfig, PreCheckError, run_pre_check

__all__ = [
    "ENUMERATORS",
    "ExhaustiveEnumerator",
    "GreedyManyToManyEnumerator",
    "JoinOrderEnumerator",
    "OptimizerConfig",
    "PhysicalSelection",
    "PreCheckError",
    "SimpliSquaredEnumerator",
    "enforcement_chain_scan",
    "make_enumerator",
    "plan_params",
    "run_pre_check",
    "shardable_enforcement_input",
]
