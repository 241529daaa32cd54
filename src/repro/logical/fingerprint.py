"""Stable fingerprints of logical expressions.

A fingerprint is a SHA-256 digest of a *canonical serialization* of a
logical query tree plus its required output order.  Two structurally
identical queries — built in different sessions, from different builder
call chains — always produce the same fingerprint, which is what lets
the serving layer's :class:`~repro.service.plan_cache.PlanCache` key
plans on query shape rather than object identity.

Why not ``hash(expr)``?  Python hashes are salted per process for
strings and say nothing across runs; the memo table inside one
optimization run can use them, a serving cache that outlives queries
cannot.  The canonical text is explicit and type-tagged (``const:int:5``
vs ``col:5`` can never collide), and named parameters serialize as
``param:name`` so every binding of a prepared query shares one entry.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..core.sort_order import EMPTY_ORDER, SortOrder
from ..expr.aggregates import AggSpec
from ..expr.expressions import (
    And,
    BinOp,
    Col,
    Comparison,
    Const,
    Expression,
    JoinPredicate,
    Or,
    Param,
)
from .algebra import (
    BaseRelation,
    Compute,
    Distinct,
    GroupBy,
    Join,
    Limit,
    LogicalExpr,
    OrderBy,
    Project,
    Select,
    Union,
)


def _expr_text(expr: Expression) -> str:
    """Canonical, type-tagged serialization of a scalar expression."""
    if isinstance(expr, Col):
        return f"col:{expr.name}"
    if isinstance(expr, Param):
        return f"param:{expr.name}"
    if isinstance(expr, Const):
        return f"const:{type(expr.value).__name__}:{expr.value!r}"
    if isinstance(expr, BinOp):
        return f"(bin {expr.op} {_expr_text(expr.left)} {_expr_text(expr.right)})"
    if isinstance(expr, Comparison):
        return f"(cmp {expr.op} {_expr_text(expr.left)} {_expr_text(expr.right)})"
    if isinstance(expr, And):
        return "(and " + " ".join(_expr_text(p) for p in expr.parts) + ")"
    if isinstance(expr, Or):
        return "(or " + " ".join(_expr_text(p) for p in expr.parts) + ")"
    raise TypeError(f"cannot fingerprint expression {type(expr).__name__}")


def _agg_text(spec: AggSpec) -> str:
    return f"(agg {spec.func} {_expr_text(spec.arg)} as {spec.output_name})"


def _join_pred_text(pred: JoinPredicate) -> str:
    return "[" + ",".join(f"{l}={r}" for l, r in pred.pairs) + "]"


def _order_text(order: SortOrder) -> str:
    return "(" + ",".join(order) + ")"


def _node_text(expr: LogicalExpr) -> str:
    """Canonical serialization of a logical operator tree."""
    if isinstance(expr, BaseRelation):
        return f"(rel {expr.table_name})"
    if isinstance(expr, Select):
        return f"(select {_expr_text(expr.predicate)} {_node_text(expr.child)})"
    if isinstance(expr, Project):
        return f"(project [{','.join(expr.columns)}] {_node_text(expr.child)})"
    if isinstance(expr, Compute):
        outs = " ".join(f"{name}={_expr_text(e)}" for name, e in expr.outputs)
        return f"(compute {outs} {_node_text(expr.child)})"
    if isinstance(expr, Join):
        return (f"(join:{expr.join_type} {_join_pred_text(expr.predicate)} "
                f"{_node_text(expr.left)} {_node_text(expr.right)})")
    if isinstance(expr, GroupBy):
        aggs = " ".join(_agg_text(a) for a in expr.aggregates)
        return (f"(group [{','.join(expr.group_columns)}] {aggs} "
                f"{_node_text(expr.child)})")
    if isinstance(expr, Distinct):
        return f"(distinct {_node_text(expr.child)})"
    if isinstance(expr, Union):
        return f"(union {_node_text(expr.left)} {_node_text(expr.right)})"
    if isinstance(expr, OrderBy):
        return f"(orderby {_order_text(expr.order)} {_node_text(expr.child)})"
    if isinstance(expr, Limit):
        return f"(limit {expr.k} {_node_text(expr.child)})"
    raise TypeError(f"cannot fingerprint logical node {type(expr).__name__}")


def canonical_text(expr: LogicalExpr,
                   required_order: Optional[SortOrder] = None) -> str:
    """Human-readable canonical form (the fingerprint's preimage)."""
    required = required_order or EMPTY_ORDER
    return f"{_node_text(expr)} order_by={_order_text(required)}"


def logical_fingerprint(expr: LogicalExpr,
                        required_order: Optional[SortOrder] = None) -> str:
    """SHA-256 hex digest identifying *expr* + required output order."""
    text = canonical_text(expr, required_order)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
