"""Measurement helpers: percentiles, per-round medians, spans, self time.

Pure functions over plain numbers so they can be unit-tested without the
program; nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100): always one of the
    samples, never an interpolation between two service-time classes."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def window_statistics(rounds: Sequence[tuple[float, Sequence[float]]]
                      ) -> dict[str, float]:
    """Throughput and latency percentiles of a timed window.

    *rounds* holds ``(busy seconds, latencies)`` per round of the mix -
    every round runs the same operations, so rounds are equal-count
    segments of the window.  Each statistic is taken per round and the
    median over rounds is returned: a burst of host noise moves the
    result only when it covers half the window."""
    return {
        "qps": statistics.median(len(lat) / busy for busy, lat in rounds),
        "p50": statistics.median(percentile(lat, 50) for _, lat in rounds),
        "p95": statistics.median(percentile(lat, 95) for _, lat in rounds),
    }


# -- host speed ---------------------------------------------------------------------
# A shared sandbox host runs the same pure-Python code up to twice as
# fast in one minute as in the next (measured here: a fixed loop took
# 76-135 ms within one minute, and whole 20 s runs differed by 2x).  No
# statistic of raw wall time is steady on such a host, so the timed path
# interleaves a fixed calibration kernel with the operations and reports
# times as they would read at the reference speed: raw seconds x
# (reference kernel seconds / kernel seconds measured next to them).
# The kernel is benchmark code, so no change to the program moves it.
_CALIBRATION_ROWS = [((i * 7919) % 97, (i * 104729) % 1009, f"s{i % 53}")
                     for i in range(2500)]
#: Kernel seconds at the reference speed (this host, undisturbed).
REFERENCE_KERNEL_SECONDS = 0.003


def kernel_seconds(clock=time.perf_counter) -> float:
    """Time one run of the calibration kernel: integer arithmetic, dict
    grouping, a tuple sort and a filtering comprehension - the kinds of
    work the program's operators do."""
    start = clock()
    total = 0
    for i in range(40_000):
        total += i * i
    groups: dict = {}
    for row in _CALIBRATION_ROWS:
        groups.setdefault(row[0], []).append(row)
    [row[1] * 2 for row in sorted(_CALIBRATION_ROWS) if row[1] > 300]
    return clock() - start


class HostSpeed:
    """Turns raw seconds into seconds at the reference host speed.

    :meth:`scale` runs the kernel and returns the factor for whatever
    was timed since the previous call (or construction): reference
    kernel seconds over the mean of the kernel runs on either side."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._last = kernel_seconds(clock)
        #: Every factor handed out (1 = reference speed, < 1 = slower).
        self.scales: list[float] = []

    def scale(self) -> float:
        before, self._last = self._last, kernel_seconds(self._clock)
        factor = REFERENCE_KERNEL_SECONDS / ((before + self._last) / 2.0)
        self.scales.append(factor)
        return factor


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of no values")
    return math.exp(sum(logs) / len(logs))


# -- spans -------------------------------------------------------------------------
class SpanRecorder:
    """In-memory span log of the layer pass: ``(name, start, end,
    parent, op)`` with ``parent`` an index into the log (``None`` for a
    root) and ``op`` the operation's identifier.  Written out once, at
    exit, by :meth:`dump`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"name": name, "start": self._clock(), "end": None,
                  "parent": parent, "op": op}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self._clock()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], op: Optional[str]) -> int:
        """Append an already-timed span (the program's own trace,
        re-based by the caller); returns its index."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "op": op})
        return len(self.spans) - 1

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}) + "\n")


def covered(intervals: Iterable[tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[dict]) -> list[float]:
    """Per span: its duration minus the part of that interval its child
    spans cover (overlapping children - parallel shards - count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        if span["end"] is None:
            out.append(0.0)
            continue
        duration = span["end"] - span["start"]
        out.append(duration - covered(children.get(index, ()),
                                      span["start"], span["end"]))
    return out
