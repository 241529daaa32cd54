"""Logical algebra, query builder and functional-dependency reasoning."""

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
    referenced_tables,
)
from .builder import Query
from .fds import FDSet
from .fingerprint import canonical_text, logical_fingerprint

__all__ = [
    "BaseRelation",
    "Compute",
    "Distinct",
    "FDSet",
    "GroupBy",
    "Join",
    "Limit",
    "LogicalExpr",
    "OrderBy",
    "Project",
    "Query",
    "Select",
    "Union",
    "canonical_text",
    "logical_fingerprint",
    "referenced_tables",
]
