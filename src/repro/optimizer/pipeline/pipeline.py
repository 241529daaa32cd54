"""The staged optimization pipeline (PostBOUND-style composition).

:class:`OptimizationPipeline` is the validated, resolved form of an
:class:`~.pre_check.OptimizerConfig`: the config copy plus the live
order strategy and join-order enumerator that stage 1
(:func:`~.pre_check.run_pre_check`) produced from it.  The
:class:`~repro.optimizer.volcano.Optimizer` facade builds one pipeline
at construction and reuses it for *every* entry point — ``optimize``,
phase-2 refinement (``optimize_with_forced_orders``) and ``cost_of``
all see the same enumerator — and the serving layer salts plan-cache
fingerprints with :attr:`OptimizationPipeline.cache_salt` so plans from
different enumerators never collide in a shared cache.

The four stages, in order:

1. **pre_check** — validate knobs, resolve strategy + enumerator
   (once per :class:`Optimizer`);
2. **join_enumeration** — logical tree → the tree to search (join
   order is decided here);
3. **physical_selection** — cost-based Volcano search of that tree (one
   :class:`~.physical_selection.PhysicalSelection` per query);
4. **parameterization** — bind-readiness of the chosen plan for the
   plan cache.

Stages 2–4 are driven per query by
:meth:`repro.optimizer.volcano.Optimizer.optimize`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .join_enumeration import JoinOrderEnumerator
from .pre_check import OptimizerConfig, run_pre_check

__all__ = ["OptimizationPipeline"]


class OptimizationPipeline:
    """A validated config with its resolved stage objects."""

    __slots__ = ("config", "strategy", "enumerator")

    def __init__(self, config: OptimizerConfig, strategy,
                 enumerator: JoinOrderEnumerator) -> None:
        self.config = config
        self.strategy = strategy
        self.enumerator = enumerator

    @classmethod
    def from_config(cls, config: OptimizerConfig) -> "OptimizationPipeline":
        """Run stage 1 (pre-check) and assemble the pipeline."""
        config, strategy, enumerator = run_pre_check(config)
        return cls(config, strategy, enumerator)

    def with_parallelism(self, parallelism: Optional[int]
                         ) -> "OptimizationPipeline":
        """This pipeline at another shard fan-out — same resolved
        strategy and enumerator objects (no re-validation), so every
        caller path shares one set of stage objects."""
        if parallelism is None or parallelism == self.config.parallelism:
            return self
        return OptimizationPipeline(
            replace(self.config, parallelism=max(1, parallelism)),
            self.strategy, self.enumerator)

    @property
    def cache_salt(self) -> str:
        """Fingerprint salt for the plan cache; ``""`` for the default
        exhaustive enumerator (pre-pipeline fingerprints stay valid)."""
        return self.enumerator.cache_salt
