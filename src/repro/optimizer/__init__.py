"""Volcano-style cost-based optimizer with order-aware enforcers,
staged as a pipeline (see :mod:`repro.optimizer.pipeline`)."""

from .cost import CostModel
from .pipeline import (
    ENUMERATORS,
    ExhaustiveEnumerator,
    GreedyManyToManyEnumerator,
    JoinOrderEnumerator,
    SimpliSquaredEnumerator,
    make_enumerator,
)
from .plans import PhysicalPlan
from .volcano import Optimizer, OptimizerConfig

__all__ = [
    "CostModel",
    "ENUMERATORS",
    "ExhaustiveEnumerator",
    "GreedyManyToManyEnumerator",
    "JoinOrderEnumerator",
    "Optimizer",
    "OptimizerConfig",
    "PhysicalPlan",
    "SimpliSquaredEnumerator",
    "make_enumerator",
]
