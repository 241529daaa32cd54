"""Lightweight per-query tracing: spans, traces, and ambient propagation.

One served query produces one :class:`Trace` — a tree of
:class:`Span` records covering every layer it crossed: admission, queue
wait, the four optimizer pipeline stages, plan-cache hit/miss, backend
dispatch, per-shard worker execution and the serving-side merge.  The
design constraints, in order:

* **Near-zero cost when disabled.**  Instrumented call sites use
  :func:`child_span`, which reads one :class:`~contextvars.ContextVar`
  and returns a shared no-op context manager when no trace is active —
  no allocation, no clock read.  A server built without an
  observability config never starts a trace, so every instrumented
  layer stays on that path.
* **Injectable clock.**  :class:`Tracer` and :class:`Trace` take any
  ``clock() -> float`` (default :func:`time.perf_counter`, monotonic);
  tests drive a fake clock and assert exact durations.
* **Cross-process reattachment.**  Span timestamps are *offsets from
  the trace's epoch*, not absolute clock readings, because
  ``perf_counter`` values are not comparable across processes.  A pool
  worker builds its own :class:`Trace` carrying the parent's trace id
  and a span-id prefix (``"<parent span id>."`` — collision-free by
  construction), ships its spans back as picklable records (exactly
  like counter tallies), and the parent re-attaches them with
  :meth:`Trace.attach`, rebasing the worker-relative offsets so the
  worker's root span ends where the parent saw the worker finish.

Ambient propagation is explicit at thread boundaries: the dispatch
thread enters ``trace.activate(root_span)`` and every nested
:func:`child_span` (optimizer stages, backend dispatch, merge) parents
itself correctly without signatures changing hands.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator, Optional

__all__ = ["Span", "Trace", "Tracer", "active_span", "child_span"]

#: The ambient span of the current thread of control (``None`` outside
#: any trace).  Explicitly re-bound — never implicitly inherited — when
#: a query crosses the dispatch-thread boundary.
_ACTIVE: ContextVar[Optional["Span"]] = ContextVar(
    "repro_active_span", default=None)

#: Span record layout shipped across process boundaries:
#: ``(span_id, parent_id, name, start, end, tags)`` with *tags* a sorted
#: tuple of ``(key, value)`` pairs — plain picklable builtins only.
SpanRecord = tuple


class Span:
    """One timed operation inside a trace.

    ``start``/``end`` are seconds since the owning trace's epoch
    (``end is None`` while the span is open).  ``tags`` carry small
    structured annotations (cache_hit, shard index, row counts, error
    class); :meth:`tag` is chainable and safe on finished spans.
    """

    __slots__ = ("trace", "span_id", "parent_id", "name", "start", "end",
                 "tags")

    def __init__(self, trace: "Trace", span_id: str,
                 parent_id: Optional[str], name: str, start: float,
                 tags: Optional[dict] = None) -> None:
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.tags: dict[str, Any] = dict(tags) if tags else {}

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def tag(self, **tags: Any) -> "Span":
        self.tags.update(tags)
        return self

    def to_record(self) -> SpanRecord:
        return (self.span_id, self.parent_id, self.name, self.start,
                self.end, tuple(sorted(self.tags.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f"{self.duration * 1000:.2f}ms" if self.end is not None \
            else "open"
        return f"Span({self.name!r} id={self.span_id} {dur})"


class _NullSpan:
    """Shared no-op stand-in returned by :func:`child_span` when no
    trace is active: a context manager yielding itself, with a no-op
    :meth:`tag` — so instrumented code never branches on enablement."""

    __slots__ = ()
    span_id = None
    name = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Trace:
    """The span tree of one traced query.

    Thread-safe: the admission path, the dispatch thread and the
    backend's result-gathering all append spans concurrently.  Spans are
    kept in creation/attachment order; :meth:`render` sorts siblings by
    start offset.
    """

    def __init__(self, trace_id: str,
                 clock: Callable[[], float] = time.perf_counter,
                 id_prefix: str = "") -> None:
        self.trace_id = trace_id
        self._clock = clock
        self._epoch = clock()
        self._prefix = id_prefix
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[Span] = []

    # -- recording -------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._epoch

    def begin(self, name: str, parent_id: Optional[str] = None,
              **tags: Any) -> Span:
        """Open a span (caller finishes it explicitly — used where the
        open and close sites live on different threads, e.g. the queue
        wait between admission and dispatch)."""
        with self._lock:
            span_id = f"{self._prefix}{next(self._counter)}"
            span = Span(self, span_id, parent_id, name, self._now(), tags)
            self.spans.append(span)
        return span

    def finish(self, span: Span) -> Span:
        span.end = self._now()
        return span

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **tags: Any) -> Iterator[Span]:
        """Open a span, make it ambient for the dynamic extent, finish
        it on exit (even on error, tagging the error class)."""
        parent_id = parent.span_id if parent is not None else None
        s = self.begin(name, parent_id, **tags)
        token = _ACTIVE.set(s)
        try:
            yield s
        except BaseException as exc:
            s.tag(error=type(exc).__name__)
            raise
        finally:
            _ACTIVE.reset(token)
            self.finish(s)

    @contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        """Make *span* the ambient parent for the dynamic extent without
        opening or closing anything — the explicit hand-off used when a
        query crosses onto its dispatch thread."""
        token = _ACTIVE.set(span)
        try:
            yield span
        finally:
            _ACTIVE.reset(token)

    # -- cross-process reattachment ----------------------------------------------------
    def to_records(self) -> list[SpanRecord]:
        with self._lock:
            return [s.to_record() for s in self.spans]

    def attach(self, records: list, base_offset: float = 0.0) -> None:
        """Graft shipped span records (a worker's :meth:`to_records`)
        into this trace, rebasing their trace-relative offsets by
        *base_offset* (worker clocks are not comparable with ours, so the
        caller anchors the worker's timeline on one of its own readings)."""
        grafted = []
        for span_id, parent_id, name, start, end, tags in records:
            span = Span(self, span_id, parent_id, name,
                        start + base_offset, dict(tags))
            span.end = None if end is None else end + base_offset
            grafted.append(span)
        with self._lock:
            self.spans.extend(grafted)

    # -- reading ---------------------------------------------------------------------
    @property
    def root(self) -> Optional[Span]:
        with self._lock:
            for span in self.spans:
                if span.parent_id is None:
                    return span
        return None

    def find(self, name: str) -> Optional[Span]:
        with self._lock:
            for span in self.spans:
                if span.name == name:
                    return span
        return None

    def find_all(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def render(self) -> str:
        """The span tree as indented text, one span per line, siblings
        in start order — the slow-query log's human-facing form."""
        with self._lock:
            spans = list(self.spans)
        by_id = {s.span_id: s for s in spans}
        children: dict[Optional[str], list[Span]] = {}
        for s in spans:
            # Orphans (parent not attached — e.g. a failed worker whose
            # records never arrived) render at the root level.
            key = s.parent_id if s.parent_id in by_id else None
            children.setdefault(key, []).append(s)
        lines: list[str] = [f"trace {self.trace_id}"]

        def emit(span: Span, depth: int) -> None:
            dur = "  (open)" if span.end is None \
                else f"  {span.duration * 1000.0:.2f}ms"
            tags = "".join(f" {k}={v}" for k, v in sorted(span.tags.items()))
            lines.append(f"{'  ' * depth}- {span.name} "
                         f"[{span.start * 1000.0:.2f}ms]{dur}{tags}")
            for child in sorted(children.get(span.span_id, ()),
                                key=lambda s: (s.start, s.span_id)):
                emit(child, depth + 1)

        for top in sorted(children.get(None, ()),
                          key=lambda s: (s.start, s.span_id)):
            emit(top, 1)
        return "\n".join(lines)


class Tracer:
    """Trace factory: one per server (or per test).  A server built
    without ``obs=`` has none, so its queries start no trace and every
    :func:`child_span` down the stack takes the shared no-op path."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        #: Total traces handed out (observable through server stats).
        self.traces_started = 0

    def start(self, name: str = "trace") -> Trace:
        with self._lock:
            n = next(self._counter)
            self.traces_started += 1
        return Trace(f"{name}-{n:06d}", clock=self._clock)


def active_span() -> Optional[Span]:
    """The ambient span of the current thread of control (``None``
    outside any trace) — how backends discover an in-progress trace
    without ``run_plan`` growing tracing parameters."""
    return _ACTIVE.get()


def child_span(name: str, **tags: Any):
    """Context manager for a child of the ambient span.

    The instrumentation primitive every layer uses: inside an active
    trace it opens a child span (which becomes ambient for its extent);
    outside one it returns the shared no-op span.  Cost when tracing is
    off: one ContextVar read.
    """
    parent = _ACTIVE.get()
    if parent is None:
        return _NULL_SPAN
    return parent.trace.span(name, parent=parent, **tags)
