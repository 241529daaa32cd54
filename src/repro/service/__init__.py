"""Query-serving layer: plan cache + prepared queries + the concurrent
query server.

The optimizer reproduces the paper; this package makes it *servable*:
repeated and parameterized queries hit a fingerprint-keyed, statistics-
versioned plan cache instead of re-running the Volcano search, and
:class:`QueryServer` serves many concurrent clients with admission
control and a pluggable execution backend (in-process or a multi-core
process pool).
"""

from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from .client import (
    RetriesExhausted,
    RetryingClient,
    RetryPolicy,
    TokenBucket,
    is_transient,
)
from .feedback import FeedbackConfig
from .metrics import CircuitBreaker, LatencyTracker, ServerMetrics
from .plan_cache import CacheStats, PlanCache
# Re-exported so serving callers configure observability without a
# second import (`QueryServer(..., obs=ObservabilityConfig(...))`).
from ..obs import ObservabilityConfig, Tracer
from ..optimizer.pipeline.parameterization import plan_params
from .server import (
    CircuitOpen,
    QueryRejected,
    QueryResult,
    QueryServer,
    QueryTimeout,
    TracedResult,
)
from .session import BindingError, PreparedQuery, QuerySession, SessionMetrics

__all__ = [
    "BindingError",
    "CacheStats",
    "CircuitBreaker",
    "CircuitOpen",
    "ExecutionBackend",
    "FeedbackConfig",
    "LatencyTracker",
    "ObservabilityConfig",
    "PlanCache",
    "PreparedQuery",
    "ProcessPoolBackend",
    "QueryRejected",
    "QueryResult",
    "QueryServer",
    "QuerySession",
    "QueryTimeout",
    "RetriesExhausted",
    "RetryPolicy",
    "RetryingClient",
    "SerialBackend",
    "ServerMetrics",
    "SessionMetrics",
    "TokenBucket",
    "TracedResult",
    "Tracer",
    "is_transient",
    "make_backend",
    "plan_params",
]
