"""The plan cache: fingerprint-keyed, version-tokened, LRU-bounded,
optionally TTL-expired.

Production optimizers are rarely the latency bottleneck because they are
rarely *run*: repeated and parameterized queries are served from a plan
cache.  This module supplies that cache for the PYRO optimizer.

A cached plan is valid for exactly one *version token*.  The serving
layer passes the per-table version tuple from
:meth:`repro.storage.catalog.Catalog.table_versions` — the statistics
and index-registration versions of **only the tables the plan reads** —
so a statistics refresh or new index invalidates exactly the plans that
depend on it and leaves everything else cached.  (Any hashable token
works; the cache compares by equality and stays free of catalog
imports.)

Admission policy:

* **LRU capacity** — the least-recently-used entry is evicted when the
  cache exceeds ``capacity`` (counted in ``stats.evictions``);
* **TTL** — with ``ttl_seconds`` set, an entry older than the TTL is
  dropped at lookup time (counted in ``stats.expirations``).  A TTL
  bounds the lifetime of plans whose *data* changed without a stats
  refresh — cheap insurance when auto-analyze is not wired up.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Optional, TypeVar

PlanT = TypeVar("PlanT")


@dataclass
class CacheStats:
    """Observable counters; the serving benchmark reports these."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "hit_rate": self.hit_rate}


@dataclass
class _Entry(Generic[PlanT]):
    plan: PlanT
    stats_version: Hashable
    created_at: float
    uses: int = 0


class PlanCache(Generic[PlanT]):
    """LRU+TTL cache of optimized plans keyed by query fingerprint.

    ``get``/``put`` take the *current* version token for the plan's
    referenced tables; an entry cached under a different token is
    dropped at lookup time and counted as an invalidation (which is also
    a miss — the caller must re-optimize).  ``clock`` is injectable for
    deterministic TTL tests.
    """

    def __init__(self, capacity: int = 128,
                 ttl_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: "OrderedDict[Hashable, _Entry[PlanT]]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, stats_version: Hashable) -> Optional[PlanT]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self.ttl_seconds is not None and \
                self._clock() - entry.created_at >= self.ttl_seconds:
            # Too old to trust, whatever the catalog says.
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        if entry.stats_version != stats_version:
            # The world changed under the plan: drop it.
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.uses += 1
        self.stats.hits += 1
        return entry.plan

    def put(self, key: Hashable, plan: PlanT, stats_version: Hashable) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = _Entry(plan, stats_version, self._clock())
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_all(self) -> int:
        """Drop every entry (e.g. after a bulk load); returns the count."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += dropped
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (f"PlanCache({len(self._entries)}/{self.capacity} entries, "
                f"{s.hits} hits / {s.misses} misses)")


class SharedPlanCache(PlanCache[PlanT]):
    """A concurrency-safe plan cache shared across many sessions.

    The cross-session cache of the serving tier: one instance is handed
    to every :class:`~repro.service.session.QuerySession` a
    :class:`~repro.service.server.QueryServer` creates, so a plan
    optimized on one dispatch thread serves every other.  Cached
    :class:`~repro.engine.prepared.PreparedPlan` values hold an
    immutable plan and the operator tree lowered from it once, which is
    re-entrant (no operator keeps per-execution state; parameter values
    travel in each execution's context), so sharing the *values* is
    safe; this class only has to make the cache *bookkeeping* (LRU
    order, TTL expiry, counters) atomic, which one lock around each
    public operation does.  The
    counters in :attr:`stats` are mutated exclusively under the lock, so
    ``hits + misses == lookups`` holds at every observable instant.
    """

    def __init__(self, capacity: int = 128,
                 ttl_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__(capacity, ttl_seconds, clock)
        self._lock = threading.RLock()

    def get(self, key: Hashable, stats_version: Hashable) -> Optional[PlanT]:
        with self._lock:
            return super().get(key, stats_version)

    def put(self, key: Hashable, plan: PlanT, stats_version: Hashable) -> None:
        with self._lock:
            super().put(key, plan, stats_version)

    def invalidate_all(self) -> int:
        with self._lock:
            return super().invalidate_all()

    def __len__(self) -> int:
        with self._lock:
            return super().__len__()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return super().__contains__(key)
