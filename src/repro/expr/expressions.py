"""Scalar expressions and predicates.

A tiny, explicit expression AST — enough to express every query in the
paper's evaluation (Queries 1–6 plus Example 1): column references,
constants, arithmetic (Query 5 computes ``Quantity * Price``),
comparisons, conjunction/disjunction, and equality join predicates.

Expressions are compiled against a :class:`~repro.storage.schema.Schema`
in two forms:

* :meth:`Expression.compile` — a plain Python callable over one row
  tuple (the seed engine's inner loop);
* :meth:`Expression.compile_batch` — a **whole-column kernel** over a
  :class:`~repro.engine.batch.RowBatch`, returning one output value per
  row as a list.  Kernels evaluate a batch with a handful of C-level
  calls (``itemgetter``, one list comprehension per node) instead of a
  Python call per row, and ``And``/``Or`` short-circuit with a selection
  vector: later conjuncts only evaluate the rows still undecided.

Both forms implement identical semantics (SQL NULL propagation for
arithmetic, NULL-rejecting comparisons), so operators can switch between
them freely without changing results.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Union

from ..storage.schema import Schema

RowFn = Callable[[tuple], Any]
#: A batch kernel: RowBatch → list of one output value per row.  Typed
#: loosely to keep this module import-free of the engine package.
BatchFn = Callable[[Any], list]


class UnboundParamError(ValueError):
    """Compiling an expression that still contains a :class:`Param`.

    A ``ValueError`` subclass so seed-era callers that catch/assert
    ``ValueError`` keep working; the engine's operators catch this
    specific type to defer compilation until parameters are bound.
    """

_BIN_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Expression:
    """Base class of all scalar expressions."""

    def columns(self) -> frozenset[str]:
        """All column names referenced by the expression."""
        raise NotImplementedError

    def compile(self, schema: Schema) -> RowFn:
        """Compile to a row → value callable positionally bound to *schema*."""
        raise NotImplementedError

    def compile_batch(self, schema: Schema) -> BatchFn:
        """Compile to a batch → column (list of per-row values) kernel.

        The fallback maps the compiled row function over the batch, so
        any ``Expression`` subclass gets a correct (if unvectorized)
        kernel for free; the concrete nodes below override it with
        whole-column paths.
        """
        fn = self.compile(schema)
        return lambda batch: [fn(row) for row in batch.rows]

    # -- operator sugar ----------------------------------------------------------
    def __add__(self, other) -> "BinOp":
        return BinOp("+", self, wrap(other))

    def __sub__(self, other) -> "BinOp":
        return BinOp("-", self, wrap(other))

    def __mul__(self, other) -> "BinOp":
        return BinOp("*", self, wrap(other))

    def __truediv__(self, other) -> "BinOp":
        return BinOp("/", self, wrap(other))

    def eq(self, other) -> "Comparison":
        return Comparison("=", self, wrap(other))

    def ne(self, other) -> "Comparison":
        return Comparison("!=", self, wrap(other))

    def lt(self, other) -> "Comparison":
        return Comparison("<", self, wrap(other))

    def le(self, other) -> "Comparison":
        return Comparison("<=", self, wrap(other))

    def gt(self, other) -> "Comparison":
        return Comparison(">", self, wrap(other))

    def ge(self, other) -> "Comparison":
        return Comparison(">=", self, wrap(other))


def wrap(value: Union["Expression", int, float, str]) -> "Expression":
    """Lift a Python literal to a :class:`Const`; pass expressions through."""
    if isinstance(value, Expression):
        return value
    return Const(value)


@dataclass(frozen=True)
class Col(Expression):
    """A column reference by name."""

    name: str

    def columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def compile(self, schema: Schema) -> RowFn:
        pos = schema.position(self.name)
        return operator.itemgetter(pos)

    def compile_batch(self, schema: Schema) -> BatchFn:
        pos = schema.position(self.name)
        # Zero-copy: the batch's cached column object itself.
        return lambda batch: batch.column(pos)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expression):
    """A literal constant."""

    value: Any

    def columns(self) -> frozenset[str]:
        return frozenset()

    def compile(self, schema: Schema) -> RowFn:
        value = self.value
        return lambda row: value

    def compile_batch(self, schema: Schema) -> BatchFn:
        value = self.value
        return lambda batch: [value] * len(batch)

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Param(Expression):
    """A named query parameter (``:name`` placeholder).

    Parameters make a query *preparable*: the optimizer plans the
    template once (selectivity estimates in this model never depend on
    literal values, so the plan is bind-independent) and each execution
    brings its own values: the operator holding the expression
    substitutes them when it starts (:func:`bind_expression`).
    Compiling an unbound parameter is an error.
    """

    name: str

    def columns(self) -> frozenset[str]:
        return frozenset()

    def compile(self, schema: Schema) -> RowFn:
        raise UnboundParamError(
            f"unbound query parameter :{self.name}; execute the query "
            "through a prepared statement that supplies a binding")

    def compile_batch(self, schema: Schema) -> BatchFn:
        raise UnboundParamError(
            f"unbound query parameter :{self.name}; execute the query "
            "through a prepared statement that supplies a binding")

    def __repr__(self) -> str:
        return f":{self.name}"


def param(name: str) -> Param:
    """Convenience constructor for a named query parameter."""
    return Param(name)


@dataclass(frozen=True)
class BinOp(Expression):
    """Arithmetic over two sub-expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _BIN_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def compile(self, schema: Schema) -> RowFn:
        fn = _BIN_OPS[self.op]
        lf, rf = self.left.compile(schema), self.right.compile(schema)

        def apply(row: tuple):
            # SQL arithmetic: NULL operands propagate (outer-join padding
            # flows through computed columns as NULL, not a TypeError).
            left, right = lf(row), rf(row)
            if left is None or right is None:
                return None
            return fn(left, right)

        return apply

    def compile_batch(self, schema: Schema) -> BatchFn:
        fn = _BIN_OPS[self.op]
        left, right = self.left, self.right
        # col ⊗ const (and mirrored): one comprehension over the column,
        # no per-row operand dispatch.
        if isinstance(left, Col) and isinstance(right, Const):
            pos, k = schema.position(left.name), right.value
            if k is None:
                return lambda batch: [None] * len(batch)
            return lambda batch: [None if v is None else fn(v, k)
                                  for v in batch.column(pos)]
        if isinstance(left, Const) and isinstance(right, Col):
            pos, k = schema.position(right.name), left.value
            if k is None:
                return lambda batch: [None] * len(batch)
            return lambda batch: [None if v is None else fn(k, v)
                                  for v in batch.column(pos)]
        lf, rf = left.compile_batch(schema), right.compile_batch(schema)
        return lambda batch: [None if a is None or b is None else fn(a, b)
                              for a, b in zip(lf(batch), rf(batch))]

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Predicate(Expression):
    """Boolean-valued expression."""

    def selectivity(self, stats) -> float:
        """Estimated fraction of rows passing (System-R defaults)."""
        raise NotImplementedError

    def conjuncts(self) -> list["Predicate"]:
        return [self]


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left <op> right`` comparison."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def compile(self, schema: Schema) -> RowFn:
        fn = _CMP_OPS[self.op]
        lf, rf = self.left.compile(schema), self.right.compile(schema)

        def apply(row: tuple) -> bool:
            # SQL three-valued logic collapsed for filtering: a NULL
            # operand makes the comparison UNKNOWN, which WHERE rejects
            # (outer-join padding must not crash downstream filters).
            left, right = lf(row), rf(row)
            if left is None or right is None:
                return False
            return fn(left, right)

        return apply

    def compile_batch(self, schema: Schema) -> BatchFn:
        fn = _CMP_OPS[self.op]
        left, right = self.left, self.right
        # The dominant filter shapes get dedicated column loops; all keep
        # the row path's NULL-is-UNKNOWN-is-rejected semantics.
        if isinstance(left, Col) and isinstance(right, Const):
            pos, k = schema.position(left.name), right.value
            if k is None:
                return lambda batch: [False] * len(batch)
            return lambda batch: [v is not None and fn(v, k)
                                  for v in batch.column(pos)]
        if isinstance(left, Const) and isinstance(right, Col):
            pos, k = schema.position(right.name), left.value
            if k is None:
                return lambda batch: [False] * len(batch)
            return lambda batch: [v is not None and fn(k, v)
                                  for v in batch.column(pos)]
        if isinstance(left, Col) and isinstance(right, Col):
            lpos, rpos = schema.position(left.name), schema.position(right.name)
            return lambda batch: [
                a is not None and b is not None and fn(a, b)
                for a, b in zip(batch.column(lpos), batch.column(rpos))]
        lf, rf = left.compile_batch(schema), right.compile_batch(schema)
        return lambda batch: [
            a is not None and b is not None and fn(a, b)
            for a, b in zip(lf(batch), rf(batch))]

    def selectivity(self, stats) -> float:
        if self.op == "=":
            # col = const/param → 1/D(col); col = col by join estimation.
            if isinstance(self.left, Col) and isinstance(self.right, (Const, Param)):
                return 1.0 / stats.distinct_of(self.left.name)
            if isinstance(self.right, Col) and isinstance(self.left, (Const, Param)):
                return 1.0 / stats.distinct_of(self.right.name)
            return 0.1
        if self.op == "!=":
            return 0.9
        return 1.0 / 3.0  # range predicates

    def __repr__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    parts: tuple[Predicate, ...]

    def __init__(self, *parts: Predicate) -> None:
        flat: list[Predicate] = []
        for p in parts:
            if isinstance(p, And):
                flat.extend(p.parts)
            else:
                flat.append(p)
        object.__setattr__(self, "parts", tuple(flat))

    def columns(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.columns()
        return out

    def compile(self, schema: Schema) -> RowFn:
        fns = [p.compile(schema) for p in self.parts]
        return lambda row: all(fn(row) for fn in fns)

    def compile_batch(self, schema: Schema) -> BatchFn:
        fns = [p.compile_batch(schema) for p in self.parts]
        if not fns:
            return lambda batch: [True] * len(batch)
        if len(fns) == 1:
            return fns[0]
        first, rest = fns[0], fns[1:]

        def kernel(batch) -> list:
            # Selection-vector short-circuit: each later conjunct only
            # evaluates the rows still alive, on a compressed sub-batch,
            # and its verdicts are scattered back into the mask.
            mask = list(first(batch))
            for fn in rest:
                alive = sum(1 for m in mask if m)
                if alive == 0:
                    return mask
                if alive == len(mask):
                    mask = list(fn(batch))
                    continue
                verdicts = iter(fn(batch.compress(mask)))
                mask = [next(verdicts) if m else False for m in mask]
            return mask

        return kernel

    def selectivity(self, stats) -> float:
        sel = 1.0
        for p in self.parts:
            sel *= p.selectivity(stats)
        return sel

    def conjuncts(self) -> list[Predicate]:
        out: list[Predicate] = []
        for p in self.parts:
            out.extend(p.conjuncts())
        return out

    def __repr__(self) -> str:
        return " AND ".join(repr(p) for p in self.parts)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    parts: tuple[Predicate, ...]

    def __init__(self, *parts: Predicate) -> None:
        object.__setattr__(self, "parts", tuple(parts))

    def columns(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.columns()
        return out

    def compile(self, schema: Schema) -> RowFn:
        fns = [p.compile(schema) for p in self.parts]
        return lambda row: any(fn(row) for fn in fns)

    def compile_batch(self, schema: Schema) -> BatchFn:
        fns = [p.compile_batch(schema) for p in self.parts]
        if not fns:
            return lambda batch: [False] * len(batch)
        if len(fns) == 1:
            return fns[0]
        first, rest = fns[0], fns[1:]

        def kernel(batch) -> list:
            # Dual of the And kernel: later disjuncts only evaluate the
            # rows not yet accepted.
            mask = list(first(batch))
            for fn in rest:
                undecided = sum(1 for m in mask if not m)
                if undecided == 0:
                    return mask
                if undecided == len(mask):
                    mask = list(fn(batch))
                    continue
                verdicts = iter(fn(batch.compress([not m for m in mask])))
                mask = [m if m else next(verdicts) for m in mask]
            return mask

        return kernel

    def selectivity(self, stats) -> float:
        miss = 1.0
        for p in self.parts:
            miss *= 1.0 - p.selectivity(stats)
        return 1.0 - miss

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class JoinPredicate:
    """A conjunctive equality join predicate.

    ``pairs`` lists ``(left_column, right_column)`` equalities.  The *join
    attribute set* of the paper is the set of pair positions; merge join
    may sort on any permutation of them.
    """

    pairs: tuple[tuple[str, str], ...]

    def __init__(self, pairs: Iterable[tuple[str, str]]) -> None:
        pairs = tuple((str(l), str(r)) for l, r in pairs)
        if not pairs:
            raise ValueError("join predicate needs at least one equality pair")
        if len({l for l, _ in pairs}) != len(pairs) or len({r for _, r in pairs}) != len(pairs):
            raise ValueError(f"duplicate column in join predicate {pairs}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def left_columns(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.pairs)

    @property
    def right_columns(self) -> tuple[str, ...]:
        return tuple(r for _, r in self.pairs)

    def left_for_right(self, right_col: str) -> str:
        for l, r in self.pairs:
            if r == right_col:
                return l
        raise KeyError(right_col)

    def right_for_left(self, left_col: str) -> str:
        for l, r in self.pairs:
            if l == left_col:
                return r
        raise KeyError(left_col)

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return " AND ".join(f"{l}={r}" for l, r in self.pairs)


def col(name: str) -> Col:
    """Convenience constructor, mirrors SQL column references."""
    return Col(name)


def bind_expression(expr: Expression, binds: Mapping[str, Any]) -> Expression:
    """Substitute :class:`Param` nodes with :class:`Const` bindings.

    Returns the *same* object when nothing changed.  A parameter *binds*
    does not name stays a :class:`Param`, so compiling the result raises
    the :class:`UnboundParamError` that names it.
    """
    if isinstance(expr, Param):
        return Const(binds[expr.name]) if expr.name in binds else expr
    if isinstance(expr, (Comparison, BinOp)):
        left = bind_expression(expr.left, binds)
        right = bind_expression(expr.right, binds)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(expr.op, left, right)
    if isinstance(expr, (And, Or)):
        parts = tuple(bind_expression(p, binds) for p in expr.parts)
        if all(n is o for n, o in zip(parts, expr.parts)):
            return expr
        return type(expr)(*parts)
    return expr


def expression_params(expr: Expression) -> frozenset[str]:
    """All parameter names referenced by an expression."""
    if isinstance(expr, Param):
        return frozenset({expr.name})
    if isinstance(expr, (Comparison, BinOp)):
        return expression_params(expr.left) | expression_params(expr.right)
    if isinstance(expr, (And, Or)):
        out: frozenset[str] = frozenset()
        for p in expr.parts:
            out |= expression_params(p)
        return out
    return frozenset()
