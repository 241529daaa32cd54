"""Feedback-driven re-optimization: close the estimate→execution loop.

Every lowered operator carries a ``(tag, estimated_rows)`` meter stamped
from the plan's cost-model stats (:func:`repro.engine.lowering.meter_for`),
and executions tally actual rows per tag into
``ExecutionContext.operator_rows`` — including through the process-pool
backend, whose worker tallies travel home with each shard.  This module
turns those tallies into catalog refreshes:

1. After an execution, :meth:`QuerySession.observe_execution` compares
   estimated vs actual rows for every *scan* tag (scan tags embed the
   table name).
2. A scan whose actuals drift past ``FeedbackConfig.drift_threshold`` is
   a candidate — but the estimate may be wrong for benign per-run
   reasons (an early-terminating consumer pulls fewer rows than the
   table holds), so the drift is verified against ground truth: the
   table's *declared* ``stats.num_rows`` must itself disagree with the
   materialised row count by the same threshold.
3. Verified drift calls ``catalog.refresh_stats(table)``, re-measuring
   row counts and exact distinct counts from the rows (the per-column
   distinct sketches are deferred: built from the rows only if read).
   That bumps the table's ``stats_version``, the catalog token cached
   plans are keyed on — so every cached plan reading the table is
   invalidated and the next ``prepare`` re-optimizes cost-first, under
   live traffic, with estimates that now match reality.

Feedback is opt-in (``QuerySession(feedback=FeedbackConfig())`` /
``QueryServer(feedback=...)``).  It never changes the rows a query
returns — only *which plan* serves the queries that follow.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.lowering import LOWERINGS

#: Meter-tag prefixes whose actual row counts describe a base table (the
#: tag's suffix after ``:`` names it): the ops lowered over a catalog
#: table — not covering-index scans, whose row counts describe the
#: index, not the table.
SCAN_TAG_OPS = frozenset(op for op, row in LOWERINGS.items()
                         if "table" in row.args)


@dataclass(frozen=True)
class FeedbackConfig:
    """Knobs of the drift detector.

    ``drift_threshold`` is a ratio: actuals outside
    ``[estimated/t, estimated*t]`` count as drifted.  ``min_rows`` floors
    the comparison — tiny results produce noisy ratios and never pay for
    a re-optimization anyway.
    """

    drift_threshold: float = 2.0
    min_rows: int = 64

    def __post_init__(self) -> None:
        if self.drift_threshold <= 1.0:
            raise ValueError("drift_threshold must be > 1")
        if self.min_rows < 0:
            raise ValueError("min_rows must be >= 0")

    def drifted(self, estimated: int, actual: int) -> bool:
        """Whether an (estimated, actual) row pair is past the threshold."""
        if max(estimated, actual) < self.min_rows:
            return False
        lo, hi = min(estimated, actual), max(estimated, actual)
        return lo * self.drift_threshold < hi


def scan_table(tag: str) -> str | None:
    """The table a meter tag scans, or ``None`` for non-scan tags."""
    op, sep, table = tag.partition(":")
    if sep and op in SCAN_TAG_OPS:
        return table
    return None
