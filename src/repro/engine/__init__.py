"""Batch-vectorized Volcano-style execution engine with simulated block I/O."""

from .aggregates import (
    AGGREGATE_COMBINERS,
    HashAggregate,
    SortAggregate,
    SortedGroupCombine,
    combinable,
)
from .basic import Compute, Filter, Limit, Project, Sort
from .batch import (
    DEFAULT_BATCH_SIZE,
    BlockCharger,
    RowBatch,
    batches_of,
    collect_rows,
    flatten_batches,
)
from .context import (
    ComparisonCounter,
    ExecutionContext,
    IOAccountant,
    SortMetrics,
    collector_paused,
    key_lt,
    null_safe_wrap,
)
from .exchange import ExchangeUnion, MergeExchange
from .executor import BatchedExecutor
from .iterators import Operator, tuple_getter
from .joins import HashJoin, MergeJoin
from .kernels import KERNELS, kernel_stats
from .lowering import operators_from_plan
from .prepared import BoundPlan, PreparedPlan
from .scans import (
    CoveringIndexScan,
    RangePartitionScan,
    RowSource,
    TableScan,
    range_shardable,
    shard_bounds,
    shardable,
)
from .sets import Dedup, HashDedup, MergeUnion, UnionAll
from .sorting import merge_sorted_streams, mrs_sort, sort_batches, srs_sort
from .subplan import (
    TaskSource,
    assemble_tasks,
    exchange_occurrences,
    execute_subplan,
    init_worker,
    shard_subplans,
    strip_plan,
)

__all__ = [
    "AGGREGATE_COMBINERS",
    "BatchedExecutor",
    "BlockCharger",
    "BoundPlan",
    "ComparisonCounter",
    "Compute",
    "CoveringIndexScan",
    "DEFAULT_BATCH_SIZE",
    "Dedup",
    "ExchangeUnion",
    "ExecutionContext",
    "Filter",
    "HashAggregate",
    "HashDedup",
    "HashJoin",
    "IOAccountant",
    "KERNELS",
    "Limit",
    "MergeExchange",
    "MergeJoin",
    "MergeUnion",
    "Operator",
    "PreparedPlan",
    "Project",
    "RangePartitionScan",
    "RowBatch",
    "RowSource",
    "Sort",
    "SortAggregate",
    "SortMetrics",
    "SortedGroupCombine",
    "TableScan",
    "TaskSource",
    "UnionAll",
    "assemble_tasks",
    "batches_of",
    "collect_rows",
    "collector_paused",
    "combinable",
    "exchange_occurrences",
    "execute_subplan",
    "flatten_batches",
    "init_worker",
    "kernel_stats",
    "key_lt",
    "merge_sorted_streams",
    "mrs_sort",
    "null_safe_wrap",
    "operators_from_plan",
    "range_shardable",
    "shard_bounds",
    "shard_subplans",
    "shardable",
    "sort_batches",
    "srs_sort",
    "strip_plan",
    "tuple_getter",
]
