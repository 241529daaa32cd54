"""Stage 4 — plan parameterization (bind-readiness for the plan cache).

A physical plan leaving the pipeline may still contain
:class:`~repro.expr.expressions.Param` placeholders; this stage computes
the set of parameter names the plan needs (:func:`plan_params`) so the
serving layer can validate bindings on every execute, and provides the
pure substitution (:func:`bind_plan` / :func:`bind_expression`) that
turns a cached plan plus bindings into a runnable plan without
re-entering the optimizer.  The cost model's selectivity estimates never
depend on literal values, so plans are bind-independent by construction
and binding is a plain tree rewrite.

Moved verbatim from ``repro.service.session`` (which re-exports these
names for compatibility) so that everything a cached plan needs before
it can serve — search, enumeration, bind-readiness — lives in the
pipeline package.
"""

from __future__ import annotations

from typing import Any

from ...expr.aggregates import AggSpec
from ...expr.expressions import (
    And,
    BinOp,
    Comparison,
    Const,
    Expression,
    Or,
    Param,
)
from ..plans import PhysicalPlan

__all__ = ["bind_expression", "expression_params", "plan_params",
           "bind_plan"]


def bind_expression(expr: Expression, binds: dict[str, Any]) -> Expression:
    """Substitute :class:`Param` nodes with :class:`Const` bindings.

    Returns the *same* object when nothing changed, so unparameterized
    plans are never rebuilt.
    """
    if isinstance(expr, Param):
        if expr.name not in binds:
            raise KeyError(f"missing binding for query parameter :{expr.name}")
        return Const(binds[expr.name])
    if isinstance(expr, Comparison):
        left = bind_expression(expr.left, binds)
        right = bind_expression(expr.right, binds)
        if left is expr.left and right is expr.right:
            return expr
        return Comparison(expr.op, left, right)
    if isinstance(expr, BinOp):
        left = bind_expression(expr.left, binds)
        right = bind_expression(expr.right, binds)
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, And):
        parts = tuple(bind_expression(p, binds) for p in expr.parts)
        if all(n is o for n, o in zip(parts, expr.parts)):
            return expr
        return And(*parts)
    if isinstance(expr, Or):
        parts = tuple(bind_expression(p, binds) for p in expr.parts)
        if all(n is o for n, o in zip(parts, expr.parts)):
            return expr
        return Or(*parts)
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


def plan_params(plan: PhysicalPlan) -> frozenset[str]:
    """All parameter names referenced anywhere in a physical plan — the
    stage's entry point: bind-readiness *is* this set."""
    names: frozenset[str] = frozenset()
    for node in plan.walk():
        for key, value in node.args:
            if isinstance(value, Expression):
                names |= expression_params(value)
            elif key == "outputs":
                for _, e in value:
                    names |= expression_params(e)
            elif key == "aggregates":
                for spec in value:
                    names |= expression_params(spec.arg)
    return names


def bind_plan(plan: PhysicalPlan, binds: dict[str, Any]) -> PhysicalPlan:
    """Rebuild a physical plan with parameters bound to constants."""
    children = tuple(bind_plan(c, binds) for c in plan.children)
    changed = any(n is not o for n, o in zip(children, plan.children))
    new_args: list[tuple[str, Any]] = []
    for key, value in plan.args:
        new_value = value
        if isinstance(value, Expression):
            new_value = bind_expression(value, binds)
        elif key == "outputs":
            outs = tuple((n, bind_expression(e, binds)) for n, e in value)
            if any(e is not o for (_, e), (_, o) in zip(outs, value)):
                new_value = outs
        elif key == "aggregates":
            aggs = tuple(
                AggSpec(s.func, bind_expression(s.arg, binds), s.output_name,
                        s.output_size)
                if expression_params(s.arg) else s
                for s in value)
            if any(a is not o for a, o in zip(aggs, value)):
                new_value = aggs
        if new_value is not value:
            changed = True
        new_args.append((key, new_value))
    if not changed:
        return plan
    return PhysicalPlan(plan.op, plan.schema, plan.order, plan.stats,
                        plan.self_cost, children, tuple(new_args))
