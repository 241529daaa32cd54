"""The executor driver: the loop that pulls a plan to completion.

The physical plan is the only statement of what executes.  Plans
prepared with ``parallelism > 1`` already carry their shard fan-outs,
per-shard enforcers and :class:`~repro.engine.exchange.MergeExchange`
gathers where the cost model chose them; a plan whose search kept the
post-union sort runs unsharded.  The drive loop is therefore
:meth:`Operator.run <repro.engine.iterators.Operator.run>` and nothing
else: sessions and backends call it on the lowered root, exchanges are
drained lazily on the calling thread, and multi-core execution is the
process backend's job (:mod:`repro.service.backends`).

:class:`BatchedExecutor` is that loop under the name and call signature
the frozen ``benchmarks/e2e`` layer pass measures it by.
"""

from __future__ import annotations

from typing import Optional

from .context import ExecutionContext
from .iterators import Operator


class BatchedExecutor:
    """Runs an operator tree exactly as lowered.

    ``parallelism`` selects nothing: the fan-out is a *planning* input
    (``QuerySession.prepare(parallelism=k)``) and is already in the plan.
    The argument is accepted only because ``benchmarks/e2e/layers.py``
    passes it.
    """

    def __init__(self, parallelism: int = 1) -> None:
        pass

    def run(self, op: Operator,
            ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        """Execute fully, collecting all result rows."""
        return op.run(ctx)
