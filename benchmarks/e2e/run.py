#!/usr/bin/env python3
"""One end-to-end + per-layer benchmark for the optimizer -> engine ->
serving stack.

Two ways to run it, one code path:

* ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` - one workload, in this process: the end-to-end metrics
  with tracing off (``--trace 0``) or the per-layer metrics from the
  traced layer pass (``--trace 1``).  Prints every metric by name with
  its unit; the last line of standard output is one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``.
* ``python3 benchmarks/e2e/run.py [--seed N] [--workload NAME ...]
  [--out DIR]`` - every named workload (default: all four), each in its
  own fresh child process, one after another, so the process-global
  kernel cache, import warmth and RSS never leak between workloads.
  Writes ``DIR/e2e.json`` plus one span file per workload.

The load is a closed loop with one client.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import measure
import metrics as registry
import surface
from workloads import WORKLOADS, Verifier, Workload

from repro.service import QuerySession  # noqa: E402  (workloads set the path)

#: Measured seconds of a timed window (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 20
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Cold-prepare repeats after the first (discarded) one: at least this
#: many, and for at least COLD_SECONDS.
COLD_REPEATS = 15
COLD_SECONDS = 1.0
#: Raw busy seconds after which the timed path re-measures the host speed.
_CALIBRATE_EVERY = 0.025
DEFAULT_OUT = surface.REPO_ROOT / "results" / "e2e"


def set_up(cls, seed: int, quick: bool) -> tuple[Workload, float, float]:
    """Data generation + catalog build + server/pool start + one warm-up
    round (cold prepares, kernel compiles, pool warm).  Returns the
    workload, the set-up seconds (at the reference host speed) and the
    raw build seconds."""
    host = measure.HostSpeed()
    start = time.perf_counter()
    workload = cls(seed, quick)
    workload.build()
    built = time.perf_counter()
    workload.start()
    for op in workload.round():
        workload.before(op)
        workload.execute(op)
    spent = time.perf_counter() - start
    return workload, spent * host.scale(), built - start


def cold_prepare(workload: Workload, repeats: int, seconds: float) -> float:
    """Fresh session, ``prepare()`` of each distinct plan of the
    workload at its parallelism, again and again for *seconds* and at
    least *repeats* times after a discarded first repeat (it fills the
    process-global kernel cache); median of the per-repeat means, at
    the reference host speed."""
    cases = workload.cases()
    means: list[float] = []
    pending: list[float] = []
    pending_busy = 0.0
    host = measure.HostSpeed()
    began = time.perf_counter()
    while True:
        total = 0.0
        for case in cases:
            session = QuerySession(case.catalog, **dict(case.session))
            start = time.perf_counter()
            session.prepare(case.query, parallelism=case.parallelism)
            total += time.perf_counter() - start
        pending.append(total / len(cases))
        pending_busy += total
        done = len(means) + len(pending) > repeats \
            and time.perf_counter() - began >= seconds
        if pending_busy >= _CALIBRATE_EVERY or done:
            scale = host.scale()
            means.extend(mean * scale for mean in pending)
            pending, pending_busy = [], 0.0
        if done:
            return statistics.median(means[1:])


class pinned_to_one_cpu:
    """Keep a single-process workload on one CPU for the run.

    Its client thread and the server's dispatch thread hand every
    operation back and forth; in this VM that wake-up costs ~12 us when
    the guest scheduler has both on one CPU and ~70 us when it has
    spread them over two, which it does for a minute or so after
    anything used both cores (short_churn then reads 1 600 instead of
    2 700 qps).  They are GIL-bound and cannot use a second core anyway,
    so the placement is fixed instead of left to what ran before.  The
    process backend, which does use two cores, is not pinned."""

    def __init__(self, workload_cls) -> None:
        self.wanted = workload_cls.backend != "process" \
            and hasattr(os, "sched_setaffinity")
        self.previous = None

    def __enter__(self) -> None:
        if self.wanted:
            self.previous = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(self.previous)})

    def __exit__(self, *exc) -> None:
        if self.previous is not None:
            os.sched_setaffinity(0, self.previous)


def _child_pids() -> list[int]:
    """Live or unreaped children of this process (``/proc`` scan)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and brackets.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each has
    ended; called on every path out of :func:`main`.

    ``Workload.close()`` has already shut the worker pools down and
    waited for them.  What it cannot reach is multiprocessing's resource
    tracker, which a ``spawn`` pool (the layer pass's traced server)
    starts and leaves running until this process exits - it would
    outlive the run by a moment and, where nothing reaps orphans, stay
    behind as a zombie.  Closing its pipe ends it.  Anything else still
    there (a pool orphaned by an exception half-way through a set-up)
    is given *grace* seconds, then killed, and waited for."""
    try:
        from multiprocessing import resource_tracker
        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_fd", None) is not None:
            if hasattr(tracker, "_stop"):
                tracker._stop()             # closes the pipe and waits
            else:
                os.close(tracker._fd)
                tracker._fd = None
    except Exception:  # a private interface: the loop below still reaps
        pass
    for signum, wait in ((None, grace), (signal.SIGTERM, 1.0),
                         (signal.SIGKILL, 5.0)):
        deadline = time.monotonic() + wait
        while True:
            pending = []
            for pid in _child_pids():
                try:
                    if os.waitpid(pid, os.WNOHANG) == (0, 0):
                        pending.append(pid)
                except ChildProcessError:   # someone else reaped it
                    pass
            if not pending:
                return
            if signum is not None:
                for pid in pending:
                    try:
                        os.kill(pid, signum)
                    except ProcessLookupError:
                        pass
            if time.monotonic() >= deadline:
                break
            time.sleep(0.02)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children
    (the worker pool, once closed); Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_timed(name: str, seed: int, seconds: float, quick: bool,
              corrupt: bool = False) -> dict:
    """``--trace 0``: the end-to-end metrics, tracing off."""
    cls = WORKLOADS[name]
    workload, setups = None, []
    for _ in range(1 if quick else SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload, spent, _ = set_up(cls, seed, quick)
        setups.append(spent)
    try:
        workload.compute_references()
        if corrupt:
            _corrupt_one_reference(workload)
        verifier = Verifier(workload)
        ops = workload.round()
        for op in ops:                      # second warm-up round, verified
            workload.before(op)
            verifier.check(op, workload.execute(op))
        gc.collect()

        rounds, latencies, speeds = timed_window(
            workload, ops, verifier, None if quick else seconds)
        if workload.server is None:
            # Planning only: the window's operations are the cold
            # prepares, so take the same statistic from them.
            cold_ms = 1e3 * statistics.median(
                busy / len(in_round) for busy, in_round in rounds)
        else:
            cold_ms = 1e3 * cold_prepare(
                workload, 2 if quick else COLD_REPEATS,
                0.0 if quick else COLD_SECONDS)
    finally:
        workload.close()
    window = measure.window_statistics(rounds)
    values = {
        "qps": window["qps"],
        "latency_p50_ms": 1e3 * window["p50"],
        "latency_p95_ms": 1e3 * window["p95"],
        "cold_prepare_ms": cold_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    pooled = [v for _, in_round in rounds for v in in_round]
    rates = [len(in_round) / busy for busy, in_round in rounds]
    q1, _, q3 = measure.quartiles(rates)
    return _record(name, seed, seconds, 0, quick, verifier.attempted,
                   verifier.failures,
                   {k: {"value": v, "unit": registry.unit_of(k)}
                    for k, v in values.items()},
                   detail={
                       "samples": len(pooled),
                       "rounds": len(rounds),
                       "qps_rounds": rates,
                       "qps_iqr": q3 - q1,
                       "host_speed": statistics.median(speeds),
                       "host_speed_range": [min(speeds), max(speeds)],
                       "pooled_p50_ms": 1e3 * measure.percentile(pooled, 50),
                       "pooled_p95_ms": 1e3 * measure.percentile(pooled, 95),
                       "setup_s_all": setups,
                       "class_p50_ms": {
                           cls: 1e3 * measure.percentile(v, 50)
                           for cls, v in sorted(latencies.items())},
                       "class_share_of_ops": {
                           cls: len(v) / len(pooled)
                           for cls, v in sorted(latencies.items())},
                       "error_rate": len(verifier.failures)
                       / verifier.attempted,
                   })


def timed_window(workload: Workload, ops: list, verifier: Verifier,
                 seconds: Optional[float]):
    """Serve rounds of the mix for *seconds* (one round when ``None``).

    Returns ``(rounds, latencies by class, host speeds)``; a round is
    ``(busy seconds, latencies)``.  All times are at the reference host
    speed: the calibration kernel runs between groups of operations
    (every ~25 ms of work) and each group is scaled by the kernel times
    on either side of it.  Every statistic is later taken per round and
    the median over rounds reported, so a burst of host noise moves a
    result only when it covers half the window."""
    rounds: list[tuple[float, list[float]]] = []
    latencies: dict[str, list[float]] = {}
    clock = time.perf_counter
    window_start = clock()
    host = measure.HostSpeed()
    while True:
        busy, in_round = 0.0, []
        group: list[tuple[str, float]] = []
        group_busy = 0.0
        for i, op in enumerate(ops):
            start = clock()
            workload.before(op)
            submitted = clock()
            try:
                result = workload.execute(op)
            except Exception as exc:  # counted: see Verifier.check
                result = exc
            done = clock()
            # The clock has stopped: verification is not timed.
            group.append((op.cls, done - submitted))
            group_busy += done - start
            verifier.check(op, result)
            if group_busy >= _CALIBRATE_EVERY or i == len(ops) - 1:
                scale = host.scale()
                busy += group_busy * scale
                for cls, latency in group:
                    in_round.append(latency * scale)
                    latencies.setdefault(cls, []).append(latency * scale)
                group, group_busy = [], 0.0
        rounds.append((busy, in_round))
        if seconds is None or clock() - window_start >= seconds:
            return rounds, latencies, host.scales


def run_layers(name: str, seed: int, seconds: float, quick: bool,
               out_dir: Path) -> dict:
    """``--trace 1``: the per-layer metrics from the traced layer pass.
    The pass is a fixed number of operations, not a duration, so that
    its counts repeat exactly; *seconds* is only recorded."""
    from layers import LayerPass

    workload, _, build_seconds = set_up(WORKLOADS[name], seed, quick)
    try:
        workload.compute_references()
        layer_pass = LayerPass(workload, build_seconds)
        layer_pass.run()
    finally:
        workload.close()
    out_dir.mkdir(parents=True, exist_ok=True)
    layer_pass.rec.dump(out_dir / f"spans_{name}.jsonl")
    return _record(name, seed, seconds, 1, quick,
                   layer_pass.verifier.attempted,
                   layer_pass.verifier.failures, layer_pass.results(),
                   detail={"shares": layer_pass.shares,
                           "spans": len(layer_pass.rec.spans),
                           "plans": layer_pass.plans})


def _corrupt_one_reference(workload: Workload) -> None:
    """Test hook: damage the reference of the round's first operation,
    which the verification must then catch."""
    expected = workload.references[workload.round()[0].key]
    expected.rows = expected.rows[1:] + expected.rows[:1] \
        if len(expected.rows) > 1 else expected.rows + [("corrupt",)]
    expected.rows[0] = tuple("corrupt" for _ in expected.rows[0])


def _record(name, seed, seconds, trace, quick, attempted, failures,
            metrics, detail) -> dict:
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "quick": quick,
            "correct": not failures, "attempted": attempted,
            "failed": len(failures), "failures": failures[:5],
            "metrics": metrics, "detail": detail}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool = False, out_dir: Path = DEFAULT_OUT,
                 corrupt: bool = False) -> dict:
    with pinned_to_one_cpu(WORKLOADS[name]):
        if trace:
            return run_layers(name, seed, seconds, quick, out_dir)
        return run_timed(name, seed, seconds, quick, corrupt)


# -- reporting ---------------------------------------------------------------------
def print_metrics(record: dict, stream=sys.stdout) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}"
          + (" quick (never comparable)" if record["quick"] else ""),
          file=stream)
    for name, entry in record["metrics"].items():
        if entry["value"] is None:
            shown = f"null  ({entry.get('reason', '')})"
        else:
            shown = f"{entry['value']:.6g} {entry['unit']}"
        print(f"{name:46s} {shown}", file=stream)
    detail = record["detail"]
    if "samples" in detail:
        print(f"{'latency samples':46s} {detail['samples']} in "
              f"{detail['rounds']} rounds; qps IQR over rounds "
              f"{detail['qps_iqr']:.4g} 1/s", file=stream)
        print(f"{'host speed (1 = reference)':46s} "
              f"{detail['host_speed']:.3f}; times above are at the "
              "reference speed", file=stream)
    for share, value in detail.get("shares", {}).items():
        print(f"{'share: ' + share:46s} {value:.4f}", file=stream)
    print(f"{'verified':46s} {record['attempted']} attempted, "
          f"{record['failed']} failed", file=stream)
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=stream)


def contract_line(record: dict) -> str:
    """The driver's result object.  A per-layer metric that does not
    apply to the workload (``null`` in the record) reads 0 here, because
    the driver takes numbers only; the record keeps the reason."""
    metrics = {name: {"value": 0.0 if entry["value"] is None
                      else entry["value"], "unit": entry["unit"]}
               for name, entry in record["metrics"].items()}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_child(args) -> int:
    record = run_workload(args.workload[0], args.seed, args.seconds,
                          args.trace, args.quick, args.out)
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1))
    print_metrics(record)
    print(contract_line(record))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh child process, timed window then
    layer pass, one after another."""
    names = args.workload or list(WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)
    report = {"meta": {
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform()}, "workloads": {}}
    correct = True
    for name in names:
        merged: dict = {"end_to_end": {}, "per_layer": {}, "detail": {}}
        for trace in (0, 1):
            record_path = args.out / f"record_{name}_{trace}.json"
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", str(args.out), "--record", str(record_path)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{name} --trace {trace} exited {done.returncode}",
                      file=sys.stderr)
                return done.returncode
            record = json.loads(record_path.read_text())
            record_path.unlink()
            print_metrics(record)
            correct = correct and record["correct"]
            merged["end_to_end" if trace == 0 else "per_layer"] = \
                record["metrics"]
            merged["detail"].update(record["detail"])
            merged[f"verified_trace{trace}"] = {
                k: record[k] for k in ("attempted", "failed", "failures")}
        report["workloads"][name] = merged
    path = args.out / "e2e.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path}" + ("" if correct else "  (RESULTS INCORRECT)"))
    return 0 if correct else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true",
                        help="operation counts / 20 and small data; the "
                             "output is marked and never comparable")
    args = parser.parse_args(argv)
    if args.trace is not None and (not args.workload
                                   or len(args.workload) != 1):
        parser.error("--trace takes exactly one --workload")
    # A terminated run unwinds like any other, so the pools are closed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run_all(args) if args.trace is None else run_child(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
