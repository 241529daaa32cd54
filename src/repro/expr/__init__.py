"""Scalar/predicate expression language for filters, joins and aggregates."""

from .expressions import (
    And,
    BinOp,
    Col,
    Comparison,
    Const,
    Expression,
    JoinPredicate,
    Or,
    Param,
    Predicate,
    UnboundParamError,
    bind_expression,
    col,
    expression_params,
    param,
    wrap,
)
from .aggregates import AggregateFunction, AggSpec, AGGREGATES

__all__ = [
    "AGGREGATES",
    "AggSpec",
    "AggregateFunction",
    "And",
    "BinOp",
    "Col",
    "Comparison",
    "Const",
    "Expression",
    "JoinPredicate",
    "Or",
    "Param",
    "Predicate",
    "UnboundParamError",
    "bind_expression",
    "col",
    "expression_params",
    "param",
    "wrap",
]
