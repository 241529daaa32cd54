"""Scalar expressions and predicates.

A tiny, explicit expression AST — enough to express every query in the
paper's evaluation (Queries 1–6 plus Example 1): column references,
constants, arithmetic (Query 5 computes ``Quantity * Price``),
comparisons, conjunction/disjunction, and equality join predicates.

An expression is compiled by emitting Python source:
:meth:`Expression.emit` returns one Python expression over a row tuple
named ``r``, and :mod:`repro.engine.kernels` places it in a generated
kernel that runs over a whole batch of rows.  A column reads
``r[position]``; a constant is a global of the kernel and a parameter a
local it reads from the execution's binds, so neither a value nor a
parameter name is ever spelled in the source.  Semantics are SQL's:
NULL operands propagate through arithmetic, and a comparison with a NULL
operand is UNKNOWN, which a filter rejects (it reads ``False``).
``And``/``Or`` are Python's short-circuiting ``and``/``or``: a later
conjunct only runs for the rows still undecided.

A filter or compute kernel emits its expressions twice (see
:meth:`repro.engine.kernels.KernelSource.two_passes`).  The exact form
tests each operand against ``None`` (``_null_guarded``).  The two-valued
form, tried first, drops the test wherever a NULL operand makes Python
raise (``<``, ``<=``, ``>``, ``>=`` and arithmetic) or gives ``False``
anyway (``=`` with at most one column operand, its parameter operands
tested once per call).  ``!=`` and column ``=`` column are the same in
both forms: ``None != 1`` and ``None == None`` are true in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Union


class UnboundParamError(ValueError):
    """Running a kernel whose :class:`Param` the execution did not bind.

    A ``ValueError`` subclass so seed-era callers that catch/assert
    ``ValueError`` keep working.
    """


#: The Python operator token of each SQL operator: the only operator
#: text a generated kernel may contain.
_BIN_OPS = {"+": "+", "-": "-", "*": "*", "/": "/"}
_CMP_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class Expression:
    """Base class of all scalar expressions."""

    def columns(self) -> frozenset[str]:
        """All column names referenced by the expression."""
        raise NotImplementedError

    def emit(self, gen) -> str:
        """Python source of this expression over a row named ``r``.

        *gen* (a :class:`repro.engine.kernels.KernelSource`) gives column
        positions and names the kernel's constants, parameters and
        temporaries.
        """
        raise NotImplementedError

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

    def emit(self, gen) -> str:
        return gen.column(self.name)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expression):
    """A literal constant."""

    value: Any

    def columns(self) -> frozenset[str]:
        return frozenset()

    def emit(self, gen) -> str:
        return gen.const(self.value)

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Param(Expression):
    """A named query parameter (``:name`` placeholder).

    Parameters make a query *preparable*: the optimizer plans the
    template once (selectivity estimates in this model never depend on
    literal values, so the plan is bind-independent) and each execution
    brings its own values, which the operator holding the expression
    passes to its kernel.  Running a kernel without a value for the
    parameter raises :class:`UnboundParamError`.
    """

    name: str

    def columns(self) -> frozenset[str]:
        return frozenset()

    def emit(self, gen) -> str:
        return gen.param(self.name)

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

    def emit(self, gen) -> str:
        # SQL arithmetic: NULL operands propagate (outer-join padding
        # flows through computed columns as NULL, not a TypeError).  In
        # the two-valued pass any NULL operand, a constant one too,
        # raises TypeError instead, so its value is never NULL.
        if gen.two_valued:
            return f"({self.left.emit(gen)} {_BIN_OPS[self.op]} {self.right.emit(gen)})"
        return _null_guarded(gen, self.left, _BIN_OPS[self.op], self.right,
                             "None")

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def _null_guarded(gen, left: Expression, token: str, right: Expression,
                  unknown: str, bare: bool = False) -> str:
    """Source of ``left token right`` under SQL's NULL rule: *unknown*
    when either operand is NULL.  A non-NULL constant needs no test and a
    NULL one decides the result.  Every other operand is evaluated once,
    into a temporary tested against ``None``, unless *bare*: then it is
    written as it is, and the caller states why a NULL there either
    raises or gives *unknown* anyway."""
    operands, tests = [], []
    for side in (left, right):
        if isinstance(side, Const):
            if side.value is None:
                return unknown
            operands.append(side.emit(gen))
        elif bare:
            operands.append(side.emit(gen))
        else:
            temp = gen.temp()
            tests.append(f"({temp} := {side.emit(gen)}) is None")
            operands.append(temp)
    value = f"{operands[0]} {token} {operands[1]}"
    if not tests:
        return f"({value})"
    return f"({unknown} if {' or '.join(tests)} else {value})"


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

    def emit(self, gen) -> str:
        # SQL three-valued logic collapsed for filtering: a NULL operand
        # makes the comparison UNKNOWN, which WHERE rejects (outer-join
        # padding must not crash downstream filters).  The two-valued
        # pass compares bare where a NULL raises (an ordering) or reads
        # False (``=`` against a value); see the module docstring.
        bare = gen.two_valued and self.op != "!=" and not (
            self.op == "=" and isinstance(self.left, Col)
            and isinstance(self.right, Col))
        if bare and self.op == "=":
            for side in (self.left, self.right):
                if isinstance(side, Param):
                    gen.nonnull(side.emit(gen))
        return _null_guarded(gen, self.left, _CMP_OPS[self.op], self.right,
                             "False", bare)

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

    def emit(self, gen) -> str:
        if not self.parts:
            return "True"
        return "(" + " and ".join(p.emit(gen) for p in self.parts) + ")"

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

    def emit(self, gen) -> str:
        if not self.parts:
            return "False"
        return "(" + " or ".join(p.emit(gen) for p in self.parts) + ")"

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
        # Duplicates are found at C level: a repeated left name collapses
        # in the dict, a repeated right name in the set of its values.
        right_of = dict(pairs)
        if len(right_of) != len(pairs) or len(set(right_of.values())) != len(pairs):
            raise ValueError(f"duplicate column in join predicate {pairs}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def left_columns(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.pairs)

    @property
    def right_columns(self) -> tuple[str, ...]:
        return tuple(r for _, r in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return " AND ".join(f"{l}={r}" for l, r in self.pairs)


def col(name: str) -> Col:
    """Convenience constructor, mirrors SQL column references."""
    return Col(name)


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
