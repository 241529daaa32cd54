"""Observability: per-query tracing, EXPLAIN ANALYZE, metrics exposition.

The serving stack makes cost-based decisions under live traffic —
admission, circuit breaking, feedback-driven re-optimization — and this
package is the window into them:

* :mod:`repro.obs.trace` — :class:`Tracer`/:class:`Trace`/:class:`Span`
  plus the ambient :func:`child_span`/:func:`active_span` primitives
  every instrumented layer uses (near-zero cost when disabled, spans
  re-attach across process boundaries);
* :mod:`repro.obs.analyze` — :class:`ExplainAnalyze`, the plan tree
  annotated with measured rows/wall-time per operator;
* :mod:`repro.obs.export` — Prometheus-style text exposition, stable
  JSON snapshots and the bounded :class:`SlowQueryLog`.

:class:`ObservabilityConfig` is the one knob bundle the server takes
(``QueryServer(..., obs=ObservabilityConfig())`` or simply
``obs=True``); a server built without it runs the exact pre-tracing
code paths.  See ``docs/observability.md``.
"""

from dataclasses import dataclass
from typing import Optional

from .export import SlowQueryLog, json_snapshot, prometheus_text
from .trace import Span, Trace, Tracer, active_span, child_span


def __getattr__(name: str):
    # Lazy: analyze pulls in the engine's lowering module, and the
    # engine itself imports repro.obs.trace — resolving ExplainAnalyze
    # on first use keeps the import graph acyclic.
    if name == "ExplainAnalyze":
        from .analyze import ExplainAnalyze
        return ExplainAnalyze
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ExplainAnalyze",
    "ObservabilityConfig",
    "SlowQueryLog",
    "Span",
    "Trace",
    "Tracer",
    "active_span",
    "child_span",
    "json_snapshot",
    "prometheus_text",
]


@dataclass
class ObservabilityConfig:
    """Server-side observability knobs (see :class:`QueryServer`).

    ``tracer=None`` means the server builds its own :class:`Tracer`;
    inject one with a fake clock for deterministic tests.
    ``trace_queries`` is the per-query default — individual
    ``submit``/``execute`` calls may override it with ``trace=``.  A
    traced query's per-operator row meters also record wall time and
    batch counts; an untraced one's do not, because wall times are not
    deterministic, unlike every other tally.
    """

    tracer: Optional[Tracer] = None
    trace_queries: bool = True
    slow_query_seconds: float = 0.1
    slow_log_capacity: int = 64
