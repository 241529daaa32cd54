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
is faithful.  Its build and probe are plain loops over each batch's rows
and raw keys, with no Python call per row; output follows the probe
side.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, count, repeat
from operator import add, is_not, mul, ne, sub
from typing import Iterator, Optional

from ..expr.expressions import JoinPredicate
from .batch import GroupCursor, RowBatch, batches_of, drain_full, gather
from .context import ComparisonCounter, ExecutionContext, key_lt
from .iterators import Operator, assert_sorted_batches

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
    pair *i*.  The plan claims the left-side permutation as the output
    order (ε for a FULL OUTER join, whose NULL-padded unmatched right
    rows interleave with it).
    """

    def __init__(self, left: Operator, right: Operator, predicate: JoinPredicate,
                 join_type: str = "inner") -> None:
        if join_type not in JOIN_TYPES:
            raise ValueError(f"join_type must be one of {JOIN_TYPES}")
        for l, r in predicate.pairs:
            if l not in left.schema:
                raise ValueError(f"merge join: left column {l!r} missing")
            if r not in right.schema:
                raise ValueError(f"merge join: right column {r!r} missing")
        super().__init__(left.schema.concat(right.schema), [left, right])
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


def _hash_table(batches: Iterator[RowBatch], positions: list[int]
                ) -> tuple[dict[tuple, list[tuple]], list[tuple], int]:
    """The build side as a table from key to its rows (in input order),
    the rows whose key holds a NULL (they never join), and the row count."""
    table: dict[tuple, list[tuple]] = {}
    null_rows: list[tuple] = []
    count = 0
    get = table.get
    for batch in batches:
        count += len(batch.rows)
        for row, key in zip(batch.rows, batch.key_tuples(positions)):
            if None in key:
                null_rows.append(row)
                continue
            group = get(key)
            if group is None:
                table[key] = [row]
            else:
                group.append(row)
    return table, null_rows, count


class HashJoin(Operator):
    """In-memory hash join with simulated Grace partitioning I/O.

    Inner and FULL OUTER joins build on the left input and probe with the
    right; a LEFT OUTER join builds on the right and probes with the left.
    Build and probe are plain loops over each batch's rows and keys: a
    probe key holding a NULL is never in the table, so the probe needs no
    NULL test.  Output follows the probe side, a key's build rows in
    build order; a FULL OUTER join then emits its unmatched build groups
    in first-seen key order, then its NULL-key build rows.  When the
    build side exceeds sort memory, both inputs are charged one extra
    write+read (partitioning pass), the classic Grace cost
    ``2(B_l + B_r)`` on top of the scans.  The plan claims no output
    order (ε) — hash partitioning destroys order, which is what the
    paper assumes for hash operators.
    """

    def __init__(self, left: Operator, right: Operator, predicate: JoinPredicate,
                 join_type: str = "inner") -> None:
        if join_type not in JOIN_TYPES:
            raise ValueError(f"join_type must be one of {JOIN_TYPES}")
        super().__init__(left.schema.concat(right.schema), [left, right])
        self.predicate = predicate
        self.join_type = join_type

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[RowBatch]:
        left, right = self.children
        lpos = left.schema.positions(list(self.predicate.left_columns))
        rpos = right.schema.positions(list(self.predicate.right_columns))
        left_outer = self.join_type == "left"
        full = self.join_type == "full"
        build, probe = (right, left) if left_outer else (left, right)
        table, null_rows, built = _hash_table(
            build.execute_batches(ctx), rpos if left_outer else lpos)
        spills = built * build.schema.row_bytes > ctx.params.sort_memory_bytes
        if spills:
            ctx.charge_grace(built, build.schema.row_bytes)

        size = ctx.batch_size
        get = table.get
        pad = _pad(len(build.schema))  # for a probe row without a match
        matched: set[tuple] = set()
        probed = 0
        out: list[tuple] = []
        append = out.append
        for batch in probe.execute_batches(ctx):
            probed += len(batch.rows)
            keys = batch.key_tuples(lpos if left_outer else rpos)
            if left_outer:
                for lrow, key in zip(batch.rows, keys):
                    group = get(key)
                    if group is None:
                        append(lrow + pad)
                    else:
                        for rrow in group:
                            append(lrow + rrow)
            elif full:
                for rrow, key in zip(batch.rows, keys):
                    group = get(key)
                    if group is None:
                        append(pad + rrow)
                    else:
                        matched.add(key)
                        for lrow in group:
                            append(lrow + rrow)
            else:
                for rrow, key in zip(batch.rows, keys):
                    group = get(key)
                    if group is not None:
                        for lrow in group:
                            append(lrow + rrow)
            if len(out) >= size:
                yield from drain_full(out, size)
        if spills:
            ctx.charge_grace(probed, probe.schema.row_bytes)

        if full:
            pad = _pad(len(probe.schema))
            for key, group in table.items():
                if key not in matched:
                    for lrow in group:
                        append(lrow + pad)
            for lrow in null_rows:
                append(lrow + pad)
        yield from batches_of(out, size)
