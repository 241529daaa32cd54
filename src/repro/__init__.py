"""repro — reproduction of *Reducing Order Enforcement Cost in Complex
Query Plans* (Guravannavar, Sudarshan, Diwan, Sobhan Babu; ICDE 2007).

The package provides:

* a complete in-memory database substrate with simulated block I/O
  (:mod:`repro.storage`, :mod:`repro.engine`);
* the paper's modified replacement-selection sort exploiting partial
  sort orders (:mod:`repro.engine.sorting`);
* a Volcano-style cost-based optimizer with partial-sort enforcers and
  pluggable interesting-order strategies (:mod:`repro.optimizer`);
* the paper's order-selection algorithms — PathOrder DP, the tree
  2-approximation, favorable orders — in :mod:`repro.core`;
* workload generators for every table and figure of the paper's
  evaluation (:mod:`repro.workloads`) and the competitor plans it
  compares against (:mod:`repro.optimizer.baselines`); each figure's
  claim is asserted in ``tests/test_paper_ledger.py``.
"""

from .core.sort_order import (
    EMPTY_ORDER,
    AttributeEquivalence,
    SortOrder,
    longest_common_prefix,
)
from .storage import Catalog, Column, Schema, SystemParameters, Table, TableStats

__version__ = "1.0.0"

__all__ = [
    "AttributeEquivalence",
    "Catalog",
    "Column",
    "EMPTY_ORDER",
    "Schema",
    "SortOrder",
    "SystemParameters",
    "Table",
    "TableStats",
    "longest_common_prefix",
    "__version__",
]
