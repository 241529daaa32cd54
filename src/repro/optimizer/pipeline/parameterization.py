"""Stage 4 — plan parameterization (bind-readiness for the plan cache).

A physical plan leaving the pipeline may still contain
:class:`~repro.expr.expressions.Param` placeholders; this stage computes
the set of parameter names the plan needs (:func:`plan_params`).  The
serving layer keeps the set beside the cached plan and validates every
execution's bindings against it.

Nothing here substitutes values.  The cost model's selectivity estimates
never depend on literal values, so a plan is bind-independent by
construction: it is lowered once, and each execution's values travel in
its :class:`~repro.engine.context.ExecutionContext` to the operators
whose expressions hold the placeholders
(:func:`~repro.expr.expressions.bind_expression`).
"""

from __future__ import annotations

from ...expr.expressions import Expression, expression_params
from ..plans import PhysicalPlan

__all__ = ["plan_params"]


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
