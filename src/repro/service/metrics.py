"""Serving-side telemetry: admission counters, latency quantiles, worker
utilization, per-tenant accounting, and the execution circuit breaker.

Everything here is designed for one writer pattern — many threads
recording, one occasional reader — so every mutation takes the metrics
lock and the reader gets a consistent snapshot from :meth:`as_dict`.
The numbers are exactly what a ``/metrics`` endpoint of a query-serving
tier exposes: queue depth and in-flight gauges, admission outcomes
(admitted / rejected / deadline timeouts / failures), the latency
distribution (p50/p95 over a bounded reservoir of recent queries), and
per-backend busy time from which worker utilization is derived.

**Outcome exclusivity.**  Every admitted query owns one
:class:`QueryOutcome` handle; whoever resolves the query first — the
dispatch thread (completed / failed / queued-deadline expiry) or the
client wait path (timeout, abandonment) — *claims* the handle under the
metrics lock and is the only party that counts.  This is what makes

    submitted == completed + failed + timeouts
               + rejected_queue_full + rejected_quota + rejected_circuit

reconcile exactly at quiescence: earlier versions double-counted a
queued-deadline expiry as both ``failed`` and ``timeouts``, and counted
a client-abandoned still-running query as ``completed`` after already
counting its ``timeout``.

**Backpressure.**  :meth:`ServerMetrics.retry_after` turns the current
queue depth and observed p50 latency into the cooperative retry hint a
rejection carries (see ``QueryRejected.retry_after``): the estimated
time until the wait queue drains one scheduling round, clamped to a
sane range.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

#: The tenant used when a client does not identify itself.
DEFAULT_TENANT = "default"


def _log_spaced_bounds(lowest: float = 1e-4, highest: float = 60.0,
                       factor: float = 2 ** 0.25) -> tuple[float, ...]:
    """Histogram bucket upper bounds from *lowest* to past *highest*,
    each ``factor`` apart (log-spaced): ~77 buckets at the defaults."""
    bounds = [lowest]
    while bounds[-1] < highest:
        bounds.append(bounds[-1] * factor)
    return tuple(bounds)


#: Shared by every tracker: 0.1ms … 60s at 2**0.25 (≈19%) spacing, so a
#: quantile read off the histogram is within half a bucket (~9%) of the
#: exact sample quantile — plenty for latency telemetry.
_LATENCY_BOUNDS = _log_spaced_bounds()


class LatencyTracker:
    """Latency quantiles over a fixed set of log-spaced histogram buckets.

    Replaces the earlier ring-buffer design whose ``quantile`` re-sorted
    a 2048-sample window on **every** ``stats()`` read: ``record`` is one
    bisect into ~77 bounds, ``quantile`` walks the bounded cumulative
    counts and interpolates linearly inside the landing bucket (clamped
    to the observed min/max, so small-n reads stay exact-ish).  The same
    buckets back the Prometheus exposition (:meth:`buckets`).  The
    histogram covers all observations, not a sliding window.
    """

    def __init__(self) -> None:
        self._counts = [0] * (len(_LATENCY_BOUNDS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self._min = math.inf
        self._max = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds < self._min:
            self._min = seconds
        if seconds > self._max:
            self._max = seconds
        # bisect_left: a value equal to a bound lands in that bound's
        # bucket — Prometheus ``le`` (cumulative ≤) semantics.
        self._counts[bisect_left(_LATENCY_BOUNDS, seconds)] += 1

    def quantile(self, q: float) -> float:
        """The *q*-quantile (0..1) estimate; 0.0 if empty."""
        if not self.count:
            return 0.0
        target = q * self.count
        cum = 0
        for i, n in enumerate(self._counts):
            if not n:
                continue
            if cum + n >= target:
                lo = _LATENCY_BOUNDS[i - 1] if i else self._min
                hi = _LATENCY_BOUNDS[i] if i < len(_LATENCY_BOUNDS) \
                    else self._max
                frac = min(1.0, max(0.0, (target - cum) / n))
                value = lo + (hi - lo) * frac
                return max(self._min, min(self._max, value))
            cum += n
        return self._max

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound_seconds, count)`` pairs with
        Prometheus ``le`` semantics, ending with ``(inf, total)``."""
        out = []
        cum = 0
        for bound, n in zip(_LATENCY_BOUNDS, self._counts):
            cum += n
            out.append((bound, cum))
        out.append((math.inf, self.count))
        return out

    @property
    def mean(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class TenantMetrics:
    """Admission outcomes for one tenant (same taxonomy as the server)."""

    submitted: int = 0
    admitted: int = 0
    rejected_queue_full: int = 0
    rejected_quota: int = 0
    rejected_circuit: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    #: Gauge: queued + in-flight queries right now (the quantity the
    #: weighted-fair quota bounds).
    occupancy: int = 0
    #: Completed-query latency distribution for this tenant alone.
    latency: LatencyTracker = field(default_factory=LatencyTracker)

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "latency"}
        out["latency_p50_ms"] = self.latency.quantile(0.50) * 1000.0
        out["latency_p95_ms"] = self.latency.quantile(0.95) * 1000.0
        return out


class QueryOutcome:
    """One admitted query's outcome slot; claimed exactly once.

    Created by :meth:`ServerMetrics.try_admit` and threaded through both
    the dispatch body and the client wait path.  ``claim`` must only be
    called with the metrics lock held (ServerMetrics does this).
    """

    __slots__ = ("tenant", "resolved")

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.resolved = False

    def claim(self) -> bool:
        if self.resolved:
            return False
        self.resolved = True
        return True


class CircuitBreaker:
    """Consecutive-failure circuit breaker around the execution backend.

    States: **closed** (normal service) → **open** after
    ``failure_threshold`` consecutive backend failures (every submission
    is rejected for ``reset_timeout`` seconds) → **half-open** (at most
    ``half_open_max`` probe queries admitted) → **closed** again on a
    probe success, or straight back to **open** on a probe failure.

    Only *backend* failures trip the breaker — a malformed query or an
    expired deadline says nothing about the backend's health.  Thread-
    safe; ``clock`` is injectable for deterministic tests.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 1.0,
                 half_open_max: int = 1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        if half_open_max < 1:
            raise ValueError("half_open_max must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_max = half_open_max
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        #: Transition counters (observable through ``stats()``).
        self.opens = 0
        self.half_opens = 0
        self.closes = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """Lock held: open → half-open once the reset timeout elapsed."""
        if self._state == self.OPEN and \
                self._clock() - self._opened_at >= self.reset_timeout:
            self._state = self.HALF_OPEN
            self._probes_in_flight = 0
            self.half_opens += 1

    def check(self) -> Optional[float]:
        """Gate one submission.

        Returns ``None`` when the query may proceed (and, in half-open,
        reserves a probe slot), or the suggested retry-after in seconds
        when the circuit holds it back.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return None
            if self._state == self.HALF_OPEN:
                if self._probes_in_flight < self.half_open_max:
                    self._probes_in_flight += 1
                    return None
                # Probes already in flight: come back when they resolve.
                return self.reset_timeout / 2.0
            remaining = self.reset_timeout - (self._clock() - self._opened_at)
            return max(remaining, 0.001)

    def abort_probe(self) -> None:
        """A submission that reserved a half-open probe slot never made
        it to the backend (admission rejected it): release the slot so
        the breaker cannot get stuck half-open with phantom probes."""
        with self._lock:
            if self._state == self.HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    def record_success(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED
                self.closes += 1
                self._probes_in_flight = 0
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                self._trip()
            elif self._state == self.CLOSED and \
                    self._consecutive_failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        """Lock held: move to open and start the reset clock."""
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._probes_in_flight = 0
        self.opens += 1

    def as_dict(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "circuit_state": self._state,
                "circuit_consecutive_failures": self._consecutive_failures,
                "circuit_opens": self.opens,
                "circuit_half_opens": self.half_opens,
                "circuit_closes": self.closes,
            }


class ServerMetrics:
    """Thread-safe counters and gauges for one :class:`QueryServer`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latency = LatencyTracker()
        #: Admission outcomes.  ``submitted`` equals the sum of the three
        #: rejection counters plus ``admitted``; every admitted query
        #: eventually resolves to exactly one of ``completed`` /
        #: ``failed`` / ``timeouts`` (see :class:`QueryOutcome`).
        self.submitted = 0
        self.admitted = 0
        self.rejected_queue_full = 0
        self.rejected_quota = 0
        self.rejected_circuit = 0
        self.timeouts = 0
        self.completed = 0
        self.failed = 0
        #: A query that resolved after its client stopped waiting (the
        #: client already claimed the timeout): informational only —
        #: never double-counted into completed/failed.
        self.abandoned = 0
        #: Gauges.
        self.queued = 0          # admitted, waiting for a dispatch slot
        self.in_flight = 0       # currently executing
        self.max_queued_seen = 0
        self.max_in_flight_seen = 0
        #: Backend busy time (seconds of query execution, summed across
        #: dispatch slots) — utilization = busy / (wall · slots).
        self.busy_seconds = 0.0
        self._started_at = time.monotonic()
        self._tenants: dict[str, TenantMetrics] = {}

    def _tenant(self, name: str) -> TenantMetrics:
        """Lock held."""
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = TenantMetrics()
        return tenant

    # -- admission ------------------------------------------------------------------
    def try_admit(self, queue_limit: int, *,
                  tenant: str = DEFAULT_TENANT,
                  capacity: Optional[int] = None,
                  weight_of: Optional[Callable[[str], float]] = None,
                  ) -> tuple[str, Optional[QueryOutcome]]:
        """Count a submission and decide admission.

        Returns ``("admitted", outcome)``, ``("queue_full", None)`` or
        ``("quota", None)``.  The quota check implements weighted-fair
        slot allocation over *capacity* total slots (dispatch slots +
        wait queue): a tenant's entitlement is its weight's share of
        capacity **over the currently active tenants** (idle tenants
        reserve nothing), and it only binds while the wait queue is at
        least half full — below that the pool is uncontended and any
        tenant may burst.
        """
        with self._lock:
            self.submitted += 1
            t = self._tenant(tenant)
            t.submitted += 1
            if self.queued >= queue_limit:
                self.rejected_queue_full += 1
                t.rejected_queue_full += 1
                return "queue_full", None
            if capacity is not None and weight_of is not None \
                    and 2 * self.queued >= queue_limit:
                active = {name for name, m in self._tenants.items()
                          if m.occupancy > 0}
                active.add(tenant)
                if len(active) > 1:
                    total_weight = sum(weight_of(name) for name in active)
                    share = capacity * weight_of(tenant) / total_weight
                    entitlement = max(1, math.floor(share))
                    if t.occupancy >= entitlement:
                        self.rejected_quota += 1
                        t.rejected_quota += 1
                        return "quota", None
            self.admitted += 1
            t.admitted += 1
            self.queued += 1
            t.occupancy += 1
            self.max_queued_seen = max(self.max_queued_seen, self.queued)
            return "admitted", QueryOutcome(tenant)

    def count_rejected_circuit(self, tenant: str = DEFAULT_TENANT) -> None:
        """A submission turned away by the open circuit breaker."""
        with self._lock:
            self.submitted += 1
            self.rejected_circuit += 1
            t = self._tenant(tenant)
            t.submitted += 1
            t.rejected_circuit += 1

    def unqueue(self, outcome: Optional[QueryOutcome] = None) -> None:
        """An admitted query left the wait queue without running (its
        dispatch future was cancelled before a slot picked it up).  Only
        the gauges move; the client wait path claims the outcome."""
        with self._lock:
            self.queued -= 1
            if outcome is not None:
                self._tenant(outcome.tenant).occupancy -= 1

    def abandon_queued(self, outcome: QueryOutcome) -> None:
        """Admission succeeded but the dispatch submission itself failed
        (shutdown race): release the queue slot and resolve the query as
        failed so no slot — or count — leaks."""
        with self._lock:
            self.queued -= 1
            self._tenant(outcome.tenant).occupancy -= 1
            if outcome.claim():
                self.failed += 1
                self._tenant(outcome.tenant).failed += 1

    def start_execution(self, outcome: Optional[QueryOutcome] = None) -> None:
        with self._lock:
            self.queued -= 1
            self.in_flight += 1
            self.max_in_flight_seen = max(self.max_in_flight_seen,
                                          self.in_flight)

    def finish_execution(self, seconds: float, disposition: str,
                         outcome: Optional[QueryOutcome] = None) -> None:
        """The dispatch body finished one admitted query.

        *disposition* is ``"completed"``, ``"failed"`` or ``"timeout"``
        (the queued-deadline expiry).  Gauges and busy time always move;
        the outcome counter moves only if this query was not already
        claimed by the client wait path (timeout/abandonment).
        """
        with self._lock:
            self.in_flight -= 1
            self.busy_seconds += seconds
            tenant = self._tenant(outcome.tenant) if outcome is not None \
                else self._tenant(DEFAULT_TENANT)
            if outcome is not None:
                tenant.occupancy -= 1
            if outcome is not None and not outcome.claim():
                # The client stopped waiting and already counted the
                # timeout; this late result is discarded, not recounted.
                self.abandoned += 1
                return
            if disposition == "completed":
                self.completed += 1
                tenant.completed += 1
                self.latency.record(seconds)
                tenant.latency.record(seconds)
            elif disposition == "timeout":
                self.timeouts += 1
                tenant.timeouts += 1
            else:
                self.failed += 1
                tenant.failed += 1

    def count_timeout(self, outcome: Optional[QueryOutcome] = None) -> bool:
        """The client wait path hit its deadline.  Counts the timeout
        only if the query was not already resolved (e.g. by the dispatch
        body's own queued-deadline expiry) — outcomes stay exclusive."""
        with self._lock:
            if outcome is not None and not outcome.claim():
                return False
            self.timeouts += 1
            tenant = outcome.tenant if outcome is not None else DEFAULT_TENANT
            self._tenant(tenant).timeouts += 1
            return True

    # -- backpressure ---------------------------------------------------------------
    def retry_after(self, max_inflight: int,
                    floor: float = 0.05, ceiling: float = 30.0) -> float:
        """Cooperative retry hint for a rejected submission.

        Estimates the time until the wait queue drains one scheduling
        round: (queued + in-flight) queries ahead, served ``max_inflight``
        at a time, each taking about the observed p50 latency (mean as
        the cold-start fallback).  Clamped to ``[floor, ceiling]``.
        """
        with self._lock:
            backlog = self.queued + self.in_flight
            per_query = self.latency.quantile(0.50) or self.latency.mean
        if per_query <= 0.0:
            per_query = floor
        rounds = math.ceil((backlog + 1) / max(1, max_inflight))
        return min(ceiling, max(floor, rounds * per_query))

    # -- reading -------------------------------------------------------------------
    def utilization(self, slots: int) -> float:
        """Fraction of available dispatch-slot time spent executing."""
        elapsed = time.monotonic() - self._started_at
        if elapsed <= 0 or slots < 1:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed * slots))

    def tenants_dict(self) -> dict[str, dict]:
        with self._lock:
            return {name: m.as_dict() for name, m in self._tenants.items()}

    def as_dict(self, slots: int) -> dict:
        with self._lock:
            return {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected_queue_full": self.rejected_queue_full,
                "rejected_quota": self.rejected_quota,
                "rejected_circuit": self.rejected_circuit,
                "timeouts": self.timeouts,
                "completed": self.completed,
                "failed": self.failed,
                "abandoned": self.abandoned,
                "queue_depth": self.queued,
                "in_flight": self.in_flight,
                "max_queue_depth": self.max_queued_seen,
                "max_in_flight": self.max_in_flight_seen,
                "latency_p50_ms": self.latency.quantile(0.50) * 1000.0,
                "latency_p95_ms": self.latency.quantile(0.95) * 1000.0,
                "latency_mean_ms": self.latency.mean * 1000.0,
                "latency_count": self.latency.count,
                "latency_sum_seconds": self.latency.total_seconds,
                "latency_histogram": self.latency.buckets(),
                "busy_seconds": self.busy_seconds,
                "worker_utilization": self.utilization(slots),
            }
