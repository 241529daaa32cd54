"""EXPLAIN ANALYZE: the physical plan annotated with measured reality.

The optimizer's whole output is a plan shape justified by *estimates*;
this module puts the measured truth next to every node so enforcer
placement decisions (per-shard SRS/MRS under a MergeExchange vs one
post-union sort) are directly legible.  Inputs are the per-operator
meters an execution leaves on its
:class:`~repro.engine.context.ExecutionContext`:

* ``operator_rows`` — ``tag -> (estimated, actual)`` row counts, always
  collected (PR 9);
* ``operator_times`` — ``tag -> (seconds, batches)`` wall time, only
  collected when the context was built with ``meter_timing=True``
  (timing is opt-in so default tallies stay bit-identical across
  backends and runs).

Meter tags aggregate: the four shard pipelines of one sharded scan all
meter under one ``"ShardedScan:trades"`` tag, and per-shard worker
contributions fold into the same cells the local merge charges.  The
renderer therefore counts how many plan nodes share each tag and marks
aggregated lines with ``xN`` rather than pretending to split a shared
total — honest output over pretty output.

Wall times are **inclusive** (time spent pulling this operator's
batches, children included), like PostgreSQL's ``actual time``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..engine.lowering import meter_for

__all__ = ["ExplainAnalyze"]


class ExplainAnalyze:
    """One execution's estimated-vs-actual report over its plan tree."""

    def __init__(self, plan, operator_rows: dict, operator_times: dict,
                 wall_seconds: float, row_count: int,
                 rows: Optional[list] = None) -> None:
        self.plan = plan
        #: ``tag -> (estimated, actual)`` output rows, summed per tag.
        self.operator_rows = dict(operator_rows)
        #: ``tag -> (seconds, batches)`` inclusive wall time, summed per
        #: tag; empty when the execution did not meter timing.
        self.operator_times = dict(operator_times)
        self.wall_seconds = wall_seconds
        self.row_count = row_count
        #: The result rows, when the caller chose to keep them.
        self.rows = rows

    # -- per-node annotation ------------------------------------------------------------
    def _tag_multiplicity(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.plan.walk():
            meter = meter_for(node)
            if meter is not None:
                counts[meter[0]] = counts.get(meter[0], 0) + 1
        return counts

    def node_annotation(self, node, multiplicity: dict[str, int]) -> str:
        meter = meter_for(node)
        if meter is None:
            return "(not metered)"
        tag = meter[0]
        cell = self.operator_rows.get(tag)
        if cell is None:
            return "(never executed)"
        estimated, actual = cell
        shared = multiplicity.get(tag, 1)
        parts = [f"rows est={estimated} act={actual}"]
        tcell = self.operator_times.get(tag)
        if tcell is not None:
            seconds, batches = tcell
            parts.append(f"time={seconds * 1000.0:.2f}ms "
                         f"batches={batches}")
        if shared > 1:
            parts.append(f"x{shared} nodes share this meter")
        return "(" + ", ".join(parts) + ")"

    # -- rendering ---------------------------------------------------------------------
    def render(self, with_cost: bool = True) -> str:
        multiplicity = self._tag_multiplicity()
        lines = [f"EXPLAIN ANALYZE  "
                 f"(total {self.wall_seconds * 1000.0:.2f}ms, "
                 f"{self.row_count} rows)"]

        def emit(node, indent: int) -> None:
            pad = "  " * indent
            cost = f" cost={node.total_cost:,.0f}" if with_cost else ""
            lines.append(f"{pad}{node.label()}{cost}  "
                         f"{self.node_annotation(node, multiplicity)}")
            for child in node.children:
                emit(child, indent + 1)

        emit(self.plan, 1)
        return "\n".join(lines)

    def node_reports(self) -> list[dict[str, Any]]:
        """Machine-readable per-node rows (pre-order), for tests and
        JSON consumers."""
        multiplicity = self._tag_multiplicity()
        out = []
        for node in self.plan.walk():
            meter = meter_for(node)
            report: dict[str, Any] = {"op": node.op, "tag": None,
                                      "estimated_rows": None,
                                      "actual_rows": None,
                                      "seconds": None, "batches": None,
                                      "shared_nodes": 1}
            if meter is not None:
                tag = meter[0]
                report["tag"] = tag
                report["shared_nodes"] = multiplicity.get(tag, 1)
                cell = self.operator_rows.get(tag)
                if cell is not None:
                    report["estimated_rows"] = cell[0]
                    report["actual_rows"] = cell[1]
                tcell = self.operator_times.get(tag)
                if tcell is not None:
                    report["seconds"] = tcell[0]
                    report["batches"] = tcell[1]
            out.append(report)
        return out

    def __str__(self) -> str:
        return self.render()
