"""The batched executor driver: the loop that pulls a plan to completion.

:class:`BatchedExecutor` is the single entry point the serving layer
uses to run a lowered operator tree: it optionally fans table scans out
into shards (:func:`~repro.engine.exchange.shard_scans`), then pulls
batches from the root.  Every caller — sessions, backends, pool workers
— drives plans through this one loop.

Shard-aware enforcement is the optimizer's decision: plans produced
with ``parallelism > 1`` already carry their per-shard enforcers and
:class:`~repro.engine.exchange.MergeExchange` gathers where the cost
model chose them, and the executor runs them as planned.  Exchanges are
drained lazily on the calling thread; multi-core execution is the
process backend's job (:mod:`repro.service.backends`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from .batch import RowBatch, collect_rows
from .context import ExecutionContext
from .exchange import shard_scans
from .iterators import Operator


class BatchedExecutor:
    """Drives operator trees batch-by-batch, optionally sharded.

    ``parallelism`` — number of shards each full table scan is split
    into (1 = leave the plan untouched).
    """

    def __init__(self, parallelism: int = 1,
                 batch_size: Optional[int] = None) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.batch_size = batch_size

    def prepare(self, op: Operator) -> Operator:
        """Apply the sharding rewrite for this executor's parallelism."""
        return shard_scans(op, self.parallelism)

    def _context(self, op: Operator,
                 ctx: Optional[ExecutionContext]) -> ExecutionContext:
        if ctx is not None:
            return ctx
        return ExecutionContext(batch_size=self.batch_size)

    def execute_batches(self, op: Operator,
                        ctx: Optional[ExecutionContext] = None
                        ) -> Iterator[RowBatch]:
        """Batch stream of the (sharded) plan."""
        ctx = self._context(op, ctx)
        return self.prepare(op).execute_batches(ctx)

    def run(self, op: Operator,
            ctx: Optional[ExecutionContext] = None) -> list[tuple]:
        """Execute fully, collecting all result rows."""
        return collect_rows(self.execute_batches(op, ctx))
