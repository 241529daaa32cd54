"""Join operators: merge join (inner/left/full outer) and hash join —
batch-vectorized.

Merge join is the operator with the factorial space of interesting
orders: its inputs must both be sorted on *the same* permutation of the
join attribute set, and its output inherits that permutation — which is
why the optimizer's choice of permutation matters so much (Section 4).
Its group-by-group merge finds the groups a batch at a time on raw keys
(groups freely cross batch boundaries on both sides).

The hash join models Grace-style partitioning I/O when the build side
exceeds memory, so the optimizer's hash-vs-merge trade-off (Figure 11)
is faithful; it builds from batches and probes a whole batch at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, count, repeat
from operator import add, is_not, mul, ne, sub
from typing import Iterator, Optional

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..expr.expressions import JoinPredicate
from .batch import (
    BatchBuilder,
    GroupCursor,
    RowBatch,
    collect_rows,
    drain_full,
    gather,
)
from .context import ComparisonCounter, ExecutionContext, key_lt
from .iterators import Operator, assert_sorted_batches, tuple_getter

JOIN_TYPES = ("inner", "left", "full")


def _pad(width: int) -> tuple:
    return (None,) * width


def _closed_region(left: GroupCursor, right: GroupCursor,
                   counter: ComparisonCounter, out: list[tuple],
                   rpad: Optional[tuple]) -> bool:
    """Take every merge step below the horizon in one go (inner join, or
    LEFT OUTER when *rpad* is given); false when there is none to take.

    Both sides are cut with ``bisect_left`` at the horizon.  The steps
    the group-at-a-time loop would take there are one per group, a
    matching pair sharing one: ``groups_left + groups_right - common``.
    Matches (common keys holding no NULL) are emitted in left order.
    Raises nothing: a ``TypeError`` from comparing or hashing the keys
    leaves both cursors untouched and reports no region.
    """
    lkeys, rkeys, llo, rlo = left.run_keys, right.run_keys, left.run, right.run
    try:
        horizon = min(lkeys[-1], rkeys[-1])
        lcut = bisect_left(lkeys, horizon, llo, len(lkeys) - 1)
        rcut = bisect_left(rkeys, horizon, rlo, len(rkeys) - 1)
        # For every right run of the region, the left run with its key.
        partners = list(map(dict(zip(lkeys[llo:lcut], range(llo, lcut))).get,
                            rkeys[rlo:rcut])) if lcut > llo and rcut > rlo else []
    except TypeError:
        return False
    if lcut == llo and rcut == rlo:
        return False
    paired = list(map(is_not, partners, repeat(None)))
    lruns = list(compress(partners, paired))
    counter.value += (lcut - llo) + (rcut - rlo) - len(lruns)
    rruns = list(compress(range(rlo, rcut), paired))
    common = gather(lkeys, lruns)
    if None in chain.from_iterable(common):
        # SQL semantics: NULL keys never match, even to each other.
        paired = [None not in key for key in common]
        lruns, rruns = list(compress(lruns, paired)), list(compress(rruns, paired))
    lrows, rrows = left.rows, right.rows
    lfirst, lstop = gather(left.starts, lruns), gather(left.stops, lruns)
    rfirst, rstop = gather(right.starts, rruns), gather(right.stops, rruns)
    if rpad is None:
        # Inner join: stretches of one-row-by-one-row matches are one
        # gather per side; only a longer group costs a step of its own.
        sizes = map(mul, map(sub, lstop, lfirst), map(sub, rstop, rfirst))
        done = 0
        for pair in compress(count(), map(ne, sizes, repeat(1))):
            out.extend(map(add, gather(lrows, lfirst[done:pair]),
                           gather(rrows, rfirst[done:pair])))
            out += [lrow + rrow for lrow in lrows[lfirst[pair]:lstop[pair]]
                    for rrow in rrows[rfirst[pair]:rstop[pair]]]
            done = pair + 1
        out.extend(map(add, gather(lrows, lfirst[done:]),
                       gather(rrows, rfirst[done:])))
    else:
        # LEFT OUTER: the left rows between two matches are padded.
        done = left.starts[llo]
        for lstart, lend, rstart, rend in zip(lfirst, lstop, rfirst, rstop):
            out.extend(map(add, lrows[done:lstart], repeat(rpad)))
            out += [lrow + rrow for lrow in lrows[lstart:lend]
                    for rrow in rrows[rstart:rend]]
            done = lend
        out.extend(map(add, lrows[done:left.starts[lcut]], repeat(rpad)))
    left.skip(lcut - llo)
    right.skip(rcut - rlo)
    return True


class MergeJoin(Operator):
    """Sort-merge join over inputs sorted on the chosen key permutation.

    ``predicate.pairs`` must be listed **in the sort-order permutation**
    the optimizer chose — position *i* of the left and right sort keys is
    pair *i*.  Output order is the left-side permutation (the right-side
    names are equivalent modulo the join equalities).
    """

    name = "MergeJoin"

    def __init__(self, left: Operator, right: Operator, predicate: JoinPredicate,
                 join_type: str = "inner") -> None:
        if join_type not in JOIN_TYPES:
            raise ValueError(f"join_type must be one of {JOIN_TYPES}")
        for l, r in predicate.pairs:
            if l not in left.schema:
                raise ValueError(f"merge join: left column {l!r} missing")
            if r not in right.schema:
                raise ValueError(f"merge join: right column {r!r} missing")
        schema = left.schema.concat(right.schema)
        # A FULL OUTER merge join pads *left* key columns of unmatched
        # right rows with NULLs, interleaved wherever the right key falls
        # — under NULLS FIRST ordering the output is not sorted on the
        # left permutation, so no order may be guaranteed.
        order = (EMPTY_ORDER if join_type == "full"
                 else SortOrder(predicate.left_columns))
        super().__init__(schema, order, [left, right])
        self.predicate = predicate
        self.join_type = join_type

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Merge the two sides; one counted comparison per merge step,
        equality decided on the raw keys.

        A merge step consumes one group from either side or a matching
        pair.  Every group whose key lies below the *horizon* — the
        smaller of the keys of the two sides' open (batch-final) runs —
        is closed on both sides, so its step is decided by the current
        batches alone: :meth:`_closed_region` takes all of them at once.
        What remains is the boundary step below, one group at a time:
        the open runs, anything a ``TypeError`` (NULL against a value,
        an unhashable key) kept out of a region, and every step of a
        FULL OUTER join, whose two sides' unmatched groups interleave.
        """
        left, right = self.children
        lbatches = left.execute_batches(ctx)
        rbatches = right.execute_batches(ctx)
        lpos = left.schema.positions(list(self.predicate.left_columns))
        rpos = right.schema.positions(list(self.predicate.right_columns))
        if ctx.check_orders:
            lbatches = assert_sorted_batches(lbatches, lpos, "MergeJoin left input")
            rbatches = assert_sorted_batches(rbatches, rpos, "MergeJoin right input")
        counter, size = ctx.comparisons, ctx.batch_size
        lpad, rpad = _pad(len(left.schema)), _pad(len(right.schema))
        emit_left_outer = self.join_type in ("left", "full")
        emit_right_outer = self.join_type == "full"
        left, right = GroupCursor(lbatches, lpos), GroupCursor(rbatches, rpos)
        out: list[tuple] = []

        while left.key is not None and right.key is not None:
            if (not emit_right_outer
                    and (left.run < left.last_run or right.run < right.last_run)
                    and _closed_region(left, right, counter, out,
                                       rpad if emit_left_outer else None)):
                if len(out) >= size:
                    yield from drain_full(out, size)
                continue
            lkey, rkey = left.key, right.key
            counter.value += 1
            if lkey == rkey:
                lgroup, rgroup = left.next_group(), right.next_group()
                # SQL semantics: NULL keys never match, even to each other.
                if None not in lkey:
                    out += [lrow + rrow for lrow in lgroup for rrow in rgroup]
                else:
                    if emit_left_outer:
                        out += [lrow + rpad for lrow in lgroup]
                    if emit_right_outer:
                        out += [lpad + rrow for rrow in rgroup]
            elif key_lt(lkey, rkey):
                lgroup = left.next_group()
                if emit_left_outer:
                    out += [lrow + rpad for lrow in lgroup]
            else:
                rgroup = right.next_group()
                if emit_right_outer:
                    out += [lpad + rrow for rrow in rgroup]
            if len(out) >= size:
                yield from drain_full(out, size)
        while emit_left_outer and left.key is not None:
            out += [lrow + rpad for lrow in left.next_group()]
            yield from drain_full(out, size)
        while emit_right_outer and right.key is not None:
            out += [lpad + rrow for rrow in right.next_group()]
            yield from drain_full(out, size)
        if out:
            yield RowBatch(out)

    def details(self) -> str:
        kind = "" if self.join_type == "inner" else f" {self.join_type.upper()} OUTER"
        return f"{self.predicate}{kind} on {self.output_order}"


class HashJoin(Operator):
    """In-memory hash join with simulated Grace partitioning I/O.

    Builds on the left input, probes with the right — one whole batch
    per probe step.  When the build side exceeds sort memory, both
    inputs are charged one extra write+read (partitioning pass), the
    classic Grace cost ``2(B_l + B_r)`` on top of the scans.  Output
    order is unspecified (ε) — hash partitioning destroys order, which
    is what the paper assumes for hash operators.
    """

    name = "HashJoin"

    def __init__(self, left: Operator, right: Operator, predicate: JoinPredicate,
                 join_type: str = "inner") -> None:
        if join_type not in JOIN_TYPES:
            raise ValueError(f"join_type must be one of {JOIN_TYPES}")
        schema = left.schema.concat(right.schema)
        super().__init__(schema, EMPTY_ORDER, [left, right])
        self.predicate = predicate
        self.join_type = join_type

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        if self.join_type == "left":
            return self._left_outer(ctx)
        return self._build_left(ctx)

    def _charge_grace(self, ctx: ExecutionContext, num_rows: int, row_bytes: int) -> None:
        """One partition write + read for *num_rows* (Grace overflow)."""
        ctx.charge_blocks_for_rows(num_rows, row_bytes, direction="write",
                                   category="partition")
        ctx.charge_blocks_for_rows(num_rows, row_bytes, direction="read",
                                   category="partition")

    def _build_left(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """Inner and FULL OUTER: build on left, probe with right."""
        left, right = self.children
        lpos = left.schema.positions(list(self.predicate.left_columns))
        rpos = right.schema.positions(list(self.predicate.right_columns))
        lwidth, rwidth = len(left.schema), len(right.schema)
        full = self.join_type == "full"

        build_rows = collect_rows(left.execute_batches(ctx))
        spills = len(build_rows) * left.schema.row_bytes > ctx.params.sort_memory_bytes
        if spills:
            self._charge_grace(ctx, len(build_rows), left.schema.row_bytes)

        lgetter = tuple_getter(lpos)
        table: dict[tuple, list[tuple]] = {}
        null_build_rows: list[tuple] = []
        for row in build_rows:
            key = lgetter(row)
            if any(v is None for v in key):
                null_build_rows.append(row)  # NULLs never join
            else:
                table.setdefault(key, []).append(row)

        matched_keys: set[tuple] = set()
        probe_count = 0
        out = BatchBuilder(ctx.batch_size)
        for rbatch in right.execute_batches(ctx):
            probe_count += len(rbatch)
            # Whole-batch key extraction (columnar zip or itemgetter map).
            for rrow, key in zip(rbatch.rows, rbatch.key_tuples(rpos)):
                group = None if any(v is None for v in key) else table.get(key)
                if group:
                    if full:
                        matched_keys.add(key)
                    emitted = out.extend(lrow + rrow for lrow in group)
                elif full:
                    emitted = out.append(_pad(lwidth) + rrow)
                else:
                    emitted = None
                if emitted is not None:
                    yield emitted
        if spills:
            self._charge_grace(ctx, probe_count, right.schema.row_bytes)

        if full:
            pad = _pad(rwidth)
            for key, group in table.items():
                if key in matched_keys:
                    continue
                emitted = out.extend(lrow + pad for lrow in group)
                if emitted is not None:
                    yield emitted
            emitted = out.extend(lrow + pad for lrow in null_build_rows)
            if emitted is not None:
                yield emitted
        tail = out.flush()
        if tail is not None:
            yield tail

    def _left_outer(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        """LEFT OUTER: build on right, stream left, pad misses."""
        left, right = self.children
        lpos = left.schema.positions(list(self.predicate.left_columns))
        rpos = right.schema.positions(list(self.predicate.right_columns))
        rwidth = len(right.schema)

        build_rows = collect_rows(right.execute_batches(ctx))
        spills = len(build_rows) * right.schema.row_bytes > ctx.params.sort_memory_bytes
        if spills:
            self._charge_grace(ctx, len(build_rows), right.schema.row_bytes)
        rgetter = tuple_getter(rpos)
        rtable: dict[tuple, list[tuple]] = {}
        for rrow in build_rows:
            key = rgetter(rrow)
            if not any(v is None for v in key):
                rtable.setdefault(key, []).append(rrow)

        pad = _pad(rwidth)
        probe_count = 0
        out = BatchBuilder(ctx.batch_size)
        for lbatch in left.execute_batches(ctx):
            probe_count += len(lbatch)
            for lrow, key in zip(lbatch.rows, lbatch.key_tuples(lpos)):
                group = None if any(v is None for v in key) else rtable.get(key)
                if group:
                    emitted = out.extend(lrow + rrow for rrow in group)
                else:
                    emitted = out.append(lrow + pad)
                if emitted is not None:
                    yield emitted
        if spills:
            self._charge_grace(ctx, probe_count, left.schema.row_bytes)
        tail = out.flush()
        if tail is not None:
            yield tail

    def details(self) -> str:
        kind = "" if self.join_type == "inner" else f" {self.join_type.upper()} OUTER"
        return f"{self.predicate}{kind}"
