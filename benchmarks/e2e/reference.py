"""A naive relational evaluator: the benchmark's independent statement
of what each fixed query shape must return.

Plain Python over ``catalog.table(name).rows`` - ``sorted``, dict
group-by, dict join - and **never the engine**: no plan, no operator,
no kernel is involved, so a wrong answer from any layer (optimizer,
lowering, kernels, shard merge, plan cache serving a stale bind) shows
as a mismatch.  References are computed once per (shape, bind) at set-up;
:func:`check` compares a served result to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence


@dataclass
class Rel:
    """A relation: column names and row tuples."""

    names: tuple
    rows: list

    def pos(self, name: str) -> int:
        return self.names.index(name)


def scan(catalog, table: str) -> Rel:
    t = catalog.table(table)
    return Rel(tuple(t.schema.names), list(t.rows))


def where(rel: Rel, column: str, test: Callable[[object], bool]) -> Rel:
    i = rel.pos(column)
    return Rel(rel.names, [r for r in rel.rows if test(r[i])])


def project(rel: Rel, columns: Sequence[str]) -> Rel:
    idx = [rel.pos(c) for c in columns]
    return Rel(tuple(columns), [tuple(r[i] for i in idx) for r in rel.rows])


def compute(rel: Rel, name: str, fn: Callable[..., object],
            inputs: Sequence[str]) -> Rel:
    """Append column *name* = ``fn(*inputs)``."""
    idx = [rel.pos(c) for c in inputs]
    return Rel(rel.names + (name,),
               [r + (fn(*(r[i] for i in idx)),) for r in rel.rows])


def join(left: Rel, right: Rel, pairs: Sequence[tuple]) -> Rel:
    """Inner equi-join on ``(left column, right column)`` pairs."""
    li = [left.pos(a) for a, _ in pairs]
    ri = [right.pos(b) for _, b in pairs]
    buckets: dict = {}
    for r in right.rows:
        buckets.setdefault(tuple(r[i] for i in ri), []).append(r)
    rows = [l + r for l in left.rows
            for r in buckets.get(tuple(l[i] for i in li), ())]
    return Rel(left.names + right.names, rows)


#: aggregate name -> fold over the group's argument values.
_FOLDS = {
    "count": len,
    "sum": lambda values: (math.fsum(values)
                           if any(isinstance(v, float) for v in values)
                           else sum(values)),
    "min": min,
}


def group_by(rel: Rel, keys: Sequence[str],
             aggregates: Sequence[tuple]) -> Rel:
    """``aggregates`` are ``(output name, fold, argument column)``;
    the argument of ``count`` is ignored (count(*))."""
    ki = [rel.pos(k) for k in keys]
    folds = [(_FOLDS[fold], None if fold == "count" else rel.pos(arg))
             for _, fold, arg in aggregates]
    groups: dict = {}
    for r in rel.rows:
        groups.setdefault(tuple(r[i] for i in ki), []).append(r)
    out = []
    for key, members in groups.items():
        out.append(key + tuple(
            fold(members if at is None else [m[at] for m in members])
            for fold, at in folds))
    return Rel(tuple(keys) + tuple(a[0] for a in aggregates), out)


# -- expected results ---------------------------------------------------------------
@dataclass
class Expected:
    """One (shape, bind)'s reference answer: the rows as a sorted
    multiset plus the positions of the required ORDER BY columns."""

    names: tuple
    rows: list
    order: tuple = ()

    @classmethod
    def of(cls, rel: Rel, order: Sequence[str] = ()) -> "Expected":
        return cls(rel.names, sorted(rel.rows),
                   tuple(rel.pos(c) for c in order))


def _same_row(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        # Float sums may differ in the last digits with summation order.
        if isinstance(x, float) and isinstance(y, float) \
                and math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
            continue
        return False
    return True


def check(expected: Expected, rows: Sequence[tuple]) -> Optional[str]:
    """``None`` when *rows* is the expected answer, else why not: full
    row equality as multisets, and non-decreasing on the required order
    (ties may come back in any order, so position is not compared)."""
    if len(rows) != len(expected.rows):
        return f"{len(rows)} rows, expected {len(expected.rows)}"
    if expected.order:
        key = expected.order
        previous = None
        for n, row in enumerate(rows):
            current = tuple(row[i] for i in key)
            if previous is not None and current < previous:
                return f"row {n} breaks the required order"
            previous = current
    got = sorted(rows)
    if got == expected.rows:
        return None
    for n, (a, b) in enumerate(zip(got, expected.rows)):
        if not _same_row(a, b):
            return f"sorted row {n}: got {a!r}, expected {b!r}"
    return None
